/* Standalone driver of the decoding kernel, for profiling it outside Python
 * and for checking it there against `uf_core`.
 *
 *   kernel_driver DUMP OUT REPEATS
 *
 * DUMP, written by `tests/kernel_driver.py`, holds a decoding graph's arrays,
 * the byte offsets of a `uf_core.ClusterSet`'s buffers in its block and the
 * defects of a list of decodes. The driver runs every decode REPEATS times
 * (REPEATS >= 1) through the oracle's kernel path: uf_grow, uf_forest, then
 * uf_run_corr. For the first round it writes to OUT, per decode, the forest
 * record (int64 length, int32 entries) and the correction (int64 count,
 * int64 ids). Every size comes from the dump: the graph's arrays and the
 * buffers' offsets are laid into the kernel's structs in the order of
 * their pointer fields, which `_kernel.GraphView` and `uf_core._Ctx` mirror.
 * Exits with status 1 on a bad dump or a kernel error return.
 *
 * The kernel is included, so that one compile builds both:
 *   cc -O2 -o kernel_driver tests/kernel_driver.c <`_kernel.link_args()`>
 * and with `-pg -fno-inline` for gprof. gprof books GCC's `.isra` clones
 * (`set_bit`, `set_new_bit`, `drain_vertices`) under the function placed
 * before them in the binary, `read_array`, whose own calls number one per
 * array of the dump.
 */
#include <stddef.h>
#include <stdio.h>

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

/* An array of the dump: its item size and count, then its bytes. An
   `itemsize` of 0 takes any item size. */
static void *read_array(int64_t itemsize_wanted, int64_t *count) {
    int64_t itemsize = read_i64(), n = read_i64();
    if (itemsize <= 0 || n < 0 || (itemsize_wanted && itemsize != itemsize_wanted))
        fail("bad array header");
    void *a = malloc((size_t)(itemsize * n) + 1);
    if (!a) fail("no memory");
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
    long repeats = argc == 4 ? strtol(argv[3], NULL, 10) : 0;
    if (repeats < 1) fail("usage: kernel_driver DUMP OUT REPEATS");
    if (!(dump = fopen(argv[1], "rb"))) fail("cannot open the dump");

    uf_graph g;
    g.n_internal = read_i64();
    g.n_edges = read_i64();
    g.row_stride = read_i64();
    int64_t n_arrays = read_i64();
    void *arrays[16];
    if (n_arrays < 0 || n_arrays > 16) fail("bad array count");
    for (int64_t i = 0; i < n_arrays; i++) arrays[i] = read_array(0, NULL);
    set_pointers(&g.adj_start, (const char *)&g + sizeof g, arrays, n_arrays);

    uf_ctx c;
    c.g = &g;
    int64_t n_buffers = read_i64(), block_bytes = read_i64();
    void *buffers[64];
    if (n_buffers < 0 || n_buffers > 64 || block_bytes <= 0) fail("bad buffer layout");
    char *block = malloc((size_t)block_bytes);
    if (!block) fail("no memory");
    for (int64_t i = 0; i < n_buffers; i++) {
        int64_t first = read_i64();
        if (first < 0 || first > block_bytes) fail("bad buffer offset");
        buffers[i] = block + first;
    }
    set_pointers(&c.counts, (const char *)&c + sizeof c, buffers, n_buffers);
    uf_init(&c);

    int64_t n_decodes = read_i64(), n_ids = 0;
    if (n_decodes < 0) fail("bad decode count");
    int64_t **defects = malloc((size_t)n_decodes * sizeof *defects + 1);
    int64_t *counts = malloc((size_t)n_decodes * sizeof *counts + 1);
    if (!defects || !counts) fail("no memory");
    for (int64_t i = 0; i < n_decodes; i++) {
        defects[i] = read_array(sizeof **defects, &counts[i]);
        n_ids += counts[i];
    }
    fclose(dump);

    FILE *out = fopen(argv[2], "wb");
    if (!out) fail("cannot open the output");
    for (long round = 0; round < repeats; round++) {
        for (int64_t i = 0; i < n_decodes; i++) {
            memcpy(c.defects, defects[i], (size_t)counts[i] * sizeof *c.defects);
            if (uf_grow(&c, counts[i])) fail("uf_grow refused the defects");
            int64_t n_rec = uf_forest(&c);
            if (n_rec < 0) fail("uf_forest returned an error");
            int64_t n_corr = uf_run_corr(&c);
            if (n_corr < 0) fail("uf_run_corr returned an error");
            if (round) continue;
            fwrite(&n_rec, sizeof n_rec, 1, out);
            fwrite(c.forest, sizeof *c.forest, (size_t)n_rec, out);
            fwrite(&n_corr, sizeof n_corr, 1, out);
            fwrite(c.scan, sizeof *c.scan, (size_t)n_corr, out);
        }
    }
    if (fclose(out)) fail("cannot write the output");
    printf("%lld decodes x %ld rounds, %lld defects per round\n", (long long)n_decodes, repeats,
           (long long)n_ids);
    return 0;
}
