/* Standalone driver of the decoding kernel, for profiling it outside Python
 * and for checking it there against `uf_core`.
 *
 *   kernel_driver DUMP OUT REPEATS [grgen]
 *
 * DUMP, written by `tests/kernel_driver.py`, holds a decoding graph's arrays,
 * the byte offsets of a `uf_core.Decoder`'s buffers in its block and the
 * defects of a list of decodes. The driver runs every decode REPEATS times
 * (REPEATS >= 1) through uf_grow, uf_forest, then uf_run_corr, the
 * pipeline model's Corr stage, which peels the context's forest record with
 * the ids uf_grow seeded, read back from touched_v, on the context's own
 * peeling scratch (the `held` marks and the `chosen` edge bits, two of its
 * buffers); it gives the correction that the oracle's uf_peel gives with
 * those ids. With `grgen`, it runs the pipeline model's Gr-Gen stage,
 * uf_run_grgen (uf_grow, then the Gr-Gen read counts), in place of uf_grow,
 * so the whole path is the pipeline model's. For the first round it
 * writes to OUT, per decode, the forest record (int64 length, int32
 * entries) and the correction (int64 count, int64 ids), and with `grgen`
 * then the counts [PASSES, N_SEEDED) that `uf_core.Decoder.grgen` returns
 * (int64 each). Every size comes from the dump: the graph's arrays and the
 * buffers are laid into the kernel's structs in the order of their pointer
 * fields, which `_kernel.GraphView` and `uf_core._Ctx` mirror. Each array
 * and each buffer is an allocation of its own, of exactly its size: a
 * buffer's size is the distance from its offset to the next one, and the
 * last takes the rest of the block. So under `-fsanitize=address` an
 * overrun past any buffer is caught, where in the one block of a `Decoder`
 * it would land in the next buffer. Everything is freed before a
 * successful exit. Exits with status 1 on a bad dump or a kernel error
 * return. On success it prints two lines to stdout:
 *   N decodes x REPEATS rounds, D defects per round
 *   T us per decode
 * where T is the wall time (CLOCK_MONOTONIC) of all REPEATS rounds, the
 * first round's writes to OUT included, divided by N x REPEATS.
 *
 * The kernel is included, so that one compile builds both:
 *   cc -O2 -o kernel_driver tests/kernel_driver.c <`_kernel.link_args()`>
 * and with `-pg -fno-inline -fno-ipa-sra` for gprof. There the one-line
 * helpers (`summary_words`, `mark_word`, `set_bit`, `set_new_bit`), which
 * `-O2` inlines, are calls of their own, and `-fno-ipa-sra` keeps GCC from
 * cloning `find` and `set_new_bit` into `.isra` copies, whose calls gprof
 * books under other functions.
 */
#define _POSIX_C_SOURCE 199309L /* clock_gettime under -std=c11 */
#include <stddef.h>
#include <stdio.h>
#include <time.h>

#include "../src/ufpipe/_ufkernel.c"

static FILE *dump;

static void fail(const char *what) {
    fprintf(stderr, "kernel_driver: %s\n", what);
    exit(1);
}

static int64_t read_i64(void) {
    int64_t x;
    if (fread(&x, sizeof x, 1, dump) != 1) fail("truncated dump");
    return x;
}

/* A fresh allocation of `bytes` bytes, at least one. */
static void *alloc(int64_t bytes) {
    void *a = malloc(bytes ? (size_t)bytes : 1);
    if (!a) fail("no memory");
    return a;
}

/* An array of the dump: its item size and count, then its bytes. An
   `itemsize` of 0 takes any item size. */
static void *read_array(int64_t itemsize_wanted, int64_t *count) {
    int64_t itemsize = read_i64(), n = read_i64();
    if (itemsize <= 0 || n < 0 || (itemsize_wanted && itemsize != itemsize_wanted))
        fail("bad array header");
    void *a = alloc(itemsize * n);
    if (fread(a, (size_t)itemsize, (size_t)n, dump) != (size_t)n) fail("truncated array");
    if (count) *count = n;
    return a;
}

/* Fill the `n` pointer fields of a struct that start at `first` and end at
   `end` from `ptrs`. */
static void set_pointers(void *first, const void *end, void *const *ptrs, int64_t n) {
    if ((size_t)n * sizeof(void *) != (size_t)((const char *)end - (char *)first))
        fail("the dump and the kernel disagree on a struct's fields");
    memcpy(first, ptrs, (size_t)n * sizeof(void *));
}

int main(int argc, char **argv) {
    long repeats = argc == 4 || argc == 5 ? strtol(argv[3], NULL, 10) : 0;
    int grgen = argc == 5 && !strcmp(argv[4], "grgen");
    if (repeats < 1 || (argc == 5 && !grgen))
        fail("usage: kernel_driver DUMP OUT REPEATS [grgen]");
    if (!(dump = fopen(argv[1], "rb"))) fail("cannot open the dump");

    uf_graph g;
    g.n_internal = read_i64();
    g.n_edges = read_i64();
    int64_t n_arrays = read_i64();
    void *arrays[16];
    if (n_arrays < 0 || n_arrays > 16) fail("bad array count");
    for (int64_t i = 0; i < n_arrays; i++) arrays[i] = read_array(0, NULL);
    set_pointers(&g.adj_start, (const char *)&g + sizeof g, arrays, n_arrays);

    uf_ctx c;
    c.g = &g;
    int64_t n_buffers = read_i64(), block_bytes = read_i64(), firsts[65];
    void *buffers[64];
    if (n_buffers < 0 || n_buffers > 64 || block_bytes <= 0) fail("bad buffer layout");
    for (int64_t i = 0; i < n_buffers; i++) firsts[i] = read_i64();
    firsts[n_buffers] = block_bytes;
    for (int64_t i = 0; i < n_buffers; i++) {
        if (firsts[i] < 0 || firsts[i] > firsts[i + 1]) fail("bad buffer offset");
        buffers[i] = alloc(firsts[i + 1] - firsts[i]);
    }
    set_pointers(&c.counts, (const char *)&c + sizeof c, buffers, n_buffers);
    uf_init(&c);

    int64_t n_decodes = read_i64(), n_ids = 0;
    if (n_decodes < 0) fail("bad decode count");
    int64_t **defects = alloc(n_decodes * (int64_t)sizeof *defects);
    int64_t *counts = alloc(n_decodes * (int64_t)sizeof *counts);
    for (int64_t i = 0; i < n_decodes; i++) {
        defects[i] = read_array(sizeof **defects, &counts[i]);
        n_ids += counts[i];
    }
    fclose(dump);

    FILE *out = fopen(argv[2], "wb");
    if (!out) fail("cannot open the output");
    struct timespec t0, t1;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    for (long round = 0; round < repeats; round++) {
        for (int64_t i = 0; i < n_decodes; i++) {
            memcpy(c.defects, defects[i], (size_t)counts[i] * sizeof *c.defects);
            if ((grgen ? uf_run_grgen : uf_grow)(&c, counts[i])) fail("growth refused the defects");
            int64_t n_rec = uf_forest(&c);
            if (n_rec < 0) fail("uf_forest returned an error");
            int64_t n_corr = uf_run_corr(&c);
            if (n_corr < 0) fail("uf_run_corr returned an error");
            if (round) continue;
            fwrite(&n_rec, sizeof n_rec, 1, out);
            fwrite(c.forest, sizeof *c.forest, (size_t)n_rec, out);
            fwrite(&n_corr, sizeof n_corr, 1, out);
            fwrite(c.scan, sizeof *c.scan, (size_t)n_corr, out);
            if (grgen)
                fwrite(c.counts + PASSES, sizeof *c.counts, (size_t)(N_SEEDED - PASSES), out);
        }
    }
    clock_gettime(CLOCK_MONOTONIC, &t1);
    if (fclose(out)) fail("cannot write the output");
    double seconds = (double)(t1.tv_sec - t0.tv_sec) + 1e-9 * (double)(t1.tv_nsec - t0.tv_nsec);
    printf("%lld decodes x %ld rounds, %lld defects per round\n", (long long)n_decodes, repeats,
           (long long)n_ids);
    printf("%.3f us per decode\n", 1e6 * seconds / ((double)n_decodes * (double)repeats));
    for (int64_t i = 0; i < n_decodes; i++) free(defects[i]);
    free(defects);
    free(counts);
    for (int64_t i = 0; i < n_buffers; i++) free(buffers[i]);
    for (int64_t i = 0; i < n_arrays; i++) free(arrays[i]);
    return 0;
}
