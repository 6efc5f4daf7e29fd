/* Union-Find decoding kernel: syndrome extraction, growth, spanning forest,
 * peeling and assessment.
 *
 * `_kernel.py` compiles this file on first import and binds it with ctypes.
 * Entry points, by caller:
 *   - `uf_core.Decoder`, one layer per call:
 *     `uf_init`, `uf_grow(ctx, k)` (checks the first k staged defects,
 *     resets over the last decode's entries, seeds and grows), `uf_forest`
 *     (writes the context's forest record) and `uf_peel(ctx, n)` (peels
 *     that record with the first n staged defects), and for the tests of
 *     hand-built tables `uf_find` and `uf_union`;
 *   - the pipeline model of `microarch`, one call per stage, composing the
 *     functions above: `uf_run_grgen(ctx, k)` (`uf_grow`, then the Gr-Gen
 *     read counts), then `uf_forest` itself, then `uf_run_corr` (`uf_peel`
 *     with the defects that growth seeded, read back from `touched_v`, so
 *     that a refused growth's staged ids are never peeled);
 *   - `lattice` and `uf_core.assess`: `uf_syndrome` and `uf_assess`;
 *   - `noise.TrialSampler`: `uf_sample`, the failed edges of one trial, drawn
 *     with numpy's own `random_geometric` (linked from numpy's static
 *     library `libnpyrandom.a`) from a Philox4x64-10 stream on the stack.
 * Every function reads a graph through the one `uf_graph` that its Python
 * `DecodingGraph` owns; a `uf_ctx` points to it and holds the addresses of
 * the decoding buffers, one numpy block of a Python `Decoder`, scratch
 * included. The kernel allocates nothing except the scratch bits of
 * `uf_syndrome` and `uf_assess`, which take no context: a fresh block per
 * call. So the graph is only read and can be shared between threads, each
 * with a context of its own. A context's forest record is always whole:
 * growth empties it and `uf_forest` writes its header last, so `uf_peel`
 * reads a record that `uf_forest` wrote, or an empty one. `uf_graph`
 * mirrors `_kernel.GraphView` and `uf_ctx` mirrors `uf_core._Ctx`, field for
 * field; `_kernel` states this file's numbers for Python under the same
 * names (side bits, counts enum, FOREST_COLUMNS, error returns).
 * `tests/test_kernel_build.py` checks every mirror against this file:
 * `test_ctypes_mirrors_declare_the_c_structs_fields_in_order` the structs,
 * `test_kernel_mirrors_hold_the_c_numbers` the numbers and
 * `test_bindings_declare_the_c_prototypes` the prototypes `BINDINGS` gives.
 * Vertex and edge ids that Python passes in or reads out (defects, edge
 * ids, corrections) are int64; the graph and the tables are int32.
 *
 * Iteration orders are fixed and equal to the reference algorithm's:
 * ascending vertex ids within a growth pass, each vertex's CSR adjacency in
 * W/E/N/S/D/U order, the fusion edge stack drained last in first out, and
 * clusters visited by their smallest vertex. A decode is therefore a
 * deterministic function of the syndrome.
 *
 * The parent table is the only record of which vertices form a cluster:
 * growth's pass-start scan and the forest find a member's root by a
 * read-only walk. Growth records what the forest needs while it holds it,
 * so that the forest rescans nothing: each fused internal edge sets its bit
 * in both endpoints' grown-slot masks, each fused boundary edge joins a
 * list, and each root keeps its cluster's smallest vertex.
 *
 * Every bitmap (the context's vertex bits and peeling's edge bits, and the
 * scratch bits of `uf_syndrome` and `uf_assess`) has `words` words and then a
 * summary of (words + 63) / 64 words, whose bit w is set when word w may
 * hold a set bit. Every setter marks the summary, and a drain reads only
 * the words it marks, so a drain costs the words that hold bits, not the
 * lattice.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define FIND_COMPRESSION_CAP 5 /* vertices repointed per find (hardware register file) */
#define LEFT_SIDE 1
#define RIGHT_SIDE 2
#define FOREST_COLUMNS 6 /* per-tree columns of a forest record, see uf_forest */

enum { N_TOUCHED_V, N_TOUCHED_E, PASSES, TABLE_READS, STM_ROW_READS, MEMBER_SCANS, FES_POPS,
       N_SEEDED, N_FUSED_BOUNDARY, N_COUNTS };

/* A decoding graph, read only, each field named as the `DecodingGraph`
   attribute it holds: sizes, the CSR adjacency over n_internal + 2
   vertices, each edge e's internal endpoint edges_u[e] and internal or
   virtual endpoint edges_v[e], each internal vertex's STM row (ascending in
   the vertex id, so that the last vertex's row is the largest, and below
   n_internal), and each edge e's slot at its ends: edge_slot[e] is its
   position in the CSR range of edges_u[e] and edge_slot[n_edges + e] its
   position in that of edges_v[e] (0xff at a virtual end). Internal
   vertices are 0 .. n_internal - 1, LEFT is vertex n_internal and RIGHT
   vertex n_internal + 1; the kernel assumes nothing else of the numbering.
   An internal vertex has at most 6 edges, so a slot fits a bit of a uint8
   mask, and at most one of them ends on LEFT or RIGHT. */
typedef struct {
    int64_t n_internal, n_edges;
    const int32_t *adj_start, *adj_edge, *adj_far, *edges_u, *edges_v, *stm_rows;
    const uint8_t *edge_slot;
} uf_graph;

typedef struct {
    const uf_graph *g; /* the graph decoded on */
    /* the decoder's buffers, in the order `uf_core._BUFFERS` lays them out */
    int64_t *counts;  /* indexed by the enum above */
    int64_t *defects; /* ids Python stages for uf_grow and uf_peel; uf_run_corr's syndrome */
    /* scratch: growth's scan list, the forest's smallest vertices, uf_peel's
       correction, and the detail of an error of uf_forest or uf_peel */
    int64_t *scan;
    /* bitmaps and their summaries, all zero between calls: over internal
       vertices, and over edges (uf_peel's correction) */
    uint64_t *bits, *chosen;
    /* per internal vertex: the union-find tables, whose parent table is the
       only record of the partition, and each root's smallest member */
    int32_t *parent, *size, *growth_steps, *low;
    /* logs: member vertices in join order, edges in first-touch order, per
       pass (len(touched_v), len(touched_e)) at its start and its FES size,
       and the boundary edges in fusion order */
    int32_t *touched_v, *touched_e, *pass_log, *fused_boundary;
    /* scratch: fusion edge stack, per boundary root its entry edge, and DFS
       frames (vertex, grown slots not yet followed) */
    int32_t *fes, *entry, *stack;
    int32_t *forest; /* forest record, see uf_forest */
    /* per internal vertex; grown: bit i set once its CSR slot i holds a fully
       grown edge to an internal vertex */
    uint8_t *parity, *boundary_sides, *member, *visited, *grown;
    uint8_t *held; /* per internal vertex: uf_peel's marks, all zero between calls */
    uint8_t *edge_state; /* per edge: 0 untouched, 1 half grown, 2 fully grown */
} uf_ctx;

/* Summary words of a bitmap of `words` words. */
static inline int64_t summary_words(int64_t words) { return (words + 63) / 64; }

/* Mark word i >> 6 of a bitmap of `words` words in its summary. */
static inline void mark_word(uint64_t *bits, int64_t words, int64_t i) {
    bits[words + (i >> 12)] |= 1ULL << ((i >> 6) & 63);
}

/* Set bit i of a bitmap of `words` words and mark its word. */
static inline void set_bit(uint64_t *bits, int64_t words, int64_t i) {
    bits[i >> 6] |= 1ULL << (i & 63);
    mark_word(bits, words, i);
}

/* Drain a bitmap of `words` words into `out` in ascending order, clearing it
   and its summary: only the words the summary marks are read. */
static int32_t drain_bits(uint64_t *bits, int64_t words, int64_t *out) {
    uint64_t *summary = bits + words;
    int32_t n = 0;
    for (int64_t s = 0; s < summary_words(words); s++) {
        uint64_t y = summary[s];
        summary[s] = 0;
        while (y) {
            int64_t w = s * 64 + __builtin_ctzll(y);
            uint64_t x = bits[w];
            bits[w] = 0;
            y &= y - 1;
            while (x) {
                out[n++] = w * 64 + __builtin_ctzll(x);
                x &= x - 1;
            }
        }
    }
    return n;
}

#define BAD_EDGE (-1)         /* an edge id outside [0, n_edges) */
#define RESIDUAL_SYNDROME 2   /* uf_assess: the residual has a nonzero syndrome */

/* Flip the bits of the internal endpoints of edges ids[0..k) in `bits`, a
   bitmap of `words` words over the internal vertices, so that a vertex's bit
   ends up set iff it has odd incidence. Returns how many of the edges end on
   LEFT, or BAD_EDGE at the first id off the graph. */
static int64_t flip_ends(const uf_graph *g, const int64_t *ids, int64_t k, uint64_t *bits,
                         int64_t words) {
    int64_t on_left = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t e = ids[i];
        if ((uint64_t)e >= (uint64_t)g->n_edges) return BAD_EDGE; /* negative ids too */
        int32_t u = g->edges_u[e], v = g->edges_v[e];
        bits[u >> 6] ^= 1ULL << (u & 63);
        mark_word(bits, words, u);
        if (v < g->n_internal) {
            bits[v >> 6] ^= 1ULL << (v & 63);
            mark_word(bits, words, v);
        } else {
            on_left += v == g->n_internal;
        }
    }
    return on_left;
}

/* Syndrome of the edges ids[0..k), repeated ids cancelling in pairs: the
   internal vertices of odd incidence, ascending, written to `out` (room for
   min(2k, n_internal) vertices). Returns their number, BAD_EDGE for an id
   off the graph, or INT64_MIN when the scratch bits cannot be allocated. */
int64_t uf_syndrome(const uf_graph *g, const int64_t *ids, int64_t k, int64_t *out) {
    int64_t words = (g->n_internal + 63) / 64;
    uint64_t *bits = calloc((size_t)(words + summary_words(words)), sizeof *bits);
    if (!bits) return INT64_MIN;
    int64_t n = flip_ends(g, ids, k, bits, words) < 0 ? BAD_EDGE : drain_bits(bits, words, out);
    free(bits);
    return n;
}

/* Assess the residual error err XOR corr, as edge-id multisets. Its syndrome
   is the XOR of the two syndromes and its count of LEFT edges is the sum of
   theirs mod 2, so both sets are flipped into one bitmap. Returns the
   residual's crossing parity, 0 or 1, when its syndrome is zero;
   RESIDUAL_SYNDROME when it is not; BAD_EDGE for an id off the graph in either
   set; INT64_MIN when the scratch bits cannot be allocated. */
int64_t uf_assess(const uf_graph *g, const int64_t *err, int64_t k_err, const int64_t *corr,
                  int64_t k_corr) {
    int64_t words = (g->n_internal + 63) / 64;
    uint64_t *bits = calloc((size_t)(words + summary_words(words)), sizeof *bits);
    if (!bits) return INT64_MIN;
    int64_t a = flip_ends(g, err, k_err, bits, words);
    int64_t b = a < 0 ? a : flip_ends(g, corr, k_corr, bits, words);
    int64_t result = b < 0 ? BAD_EDGE : (a + b) & 1;
    for (int64_t s = 0; s < summary_words(words) && result >= 0; s++)
        for (uint64_t y = bits[words + s]; y; y &= y - 1)
            if (bits[s * 64 + __builtin_ctzll(y)]) result = RESIDUAL_SYNDROME;
    free(bits);
    return result;
}

/* Set bit v of the context's bitmap, leaving the summary alone (the row
   bitmap of uf_run_grgen); 1 if it was clear before. */
static inline int64_t set_new_bit(uf_ctx *c, int32_t v) {
    uint64_t *w = c->bits + (v >> 6), b = 1ULL << (v & 63), was = *w & b;
    *w |= b;
    return !was;
}

/* Restore the initial state over the entries the last decode touched: the
   one statement of what a fresh vertex and a fresh edge hold. The forest
   record is emptied, so that no forest outlives the growth it spans. */
static void uf_reset(uf_ctx *c) {
    for (int64_t i = 0; i < c->counts[N_TOUCHED_V]; i++) {
        int32_t v = c->touched_v[i];
        c->parent[v] = v;
        c->size[v] = 1;
        c->low[v] = v;
        c->growth_steps[v] = 0;
        c->parity[v] = 0;
        c->boundary_sides[v] = 0;
        c->member[v] = 0;
        c->grown[v] = 0;
    }
    for (int64_t i = 0; i < c->counts[N_TOUCHED_E]; i++) c->edge_state[c->touched_e[i]] = 0;
    c->counts[N_TOUCHED_V] = c->counts[N_TOUCHED_E] = c->counts[PASSES] = c->counts[TABLE_READS] = 0;
    c->counts[N_FUSED_BOUNDARY] = 0;
    c->forest[0] = c->forest[1] = 0;
}

/* Initial state: zero counts, bitmaps, visited flags and peeling marks,
   then uf_reset over every vertex and every edge, taken as touched. */
void uf_init(uf_ctx *c) {
    int64_t n = c->g->n_internal, words = (n + 63) / 64;
    int64_t e_words = (c->g->n_edges + 63) / 64;
    memset(c->counts, 0, N_COUNTS * sizeof *c->counts);
    memset(c->bits, 0, (size_t)(words + summary_words(words)) * sizeof *c->bits);
    memset(c->chosen, 0, (size_t)(e_words + summary_words(e_words)) * sizeof *c->chosen);
    memset(c->visited, 0, (size_t)n);
    memset(c->held, 0, (size_t)n);
    for (int32_t v = 0; v < n; v++) c->touched_v[v] = v;
    for (int32_t e = 0; e < c->g->n_edges; e++) c->touched_e[e] = e;
    c->counts[N_TOUCHED_V] = n;
    c->counts[N_TOUCHED_E] = c->g->n_edges;
    uf_reset(c);
}

/* Make each of the first k ids in `defects` a one-vertex odd cluster of a
   reset set; they become the first k entries of touched_v. */
static void uf_seed(uf_ctx *c, int64_t k) {
    for (int64_t i = 0; i < k; i++) {
        int32_t v = (int32_t)c->defects[i];
        c->touched_v[i] = v;
        c->member[v] = 1;
        c->parity[v] = 1;
    }
    c->counts[N_TOUCHED_V] = c->counts[N_SEEDED] = k;
}

/* Root of v; 1 table read at a root, 2 at depth 1, len(path) + 1 deeper,
   where only the last FIND_COMPRESSION_CAP path vertices are repointed. */
static inline int32_t find(uf_ctx *c, int32_t v) {
    int32_t *parent = c->parent;
    int32_t r = parent[v];
    if (r == v) {
        c->counts[TABLE_READS] += 1;
        return v;
    }
    int32_t p = parent[r];
    if (p == r) {
        c->counts[TABLE_READS] += 2;
        return r;
    }
    int32_t last[FIND_COMPRESSION_CAP]; /* ring of the last path vertices */
    int64_t len = 0;
    last[len++ % FIND_COMPRESSION_CAP] = v;
    last[len++ % FIND_COMPRESSION_CAP] = r;
    for (r = p; (p = parent[r]) != r; r = p) last[len++ % FIND_COMPRESSION_CAP] = r;
    c->counts[TABLE_READS] += len + 1;
    for (int64_t i = 0; i < len && i < FIND_COMPRESSION_CAP; i++) parent[last[i]] = r;
    return r;
}

static inline void join(uf_ctx *c, int32_t v) {
    if (!c->member[v]) {
        c->member[v] = 1;
        c->touched_v[c->counts[N_TOUCHED_V]++] = v;
    }
}

/* Make u and w members (u first), then merge their clusters: weighted by
   vertex count, the smaller root id winning a tie. Parity XORs, boundary
   sides OR, growth counts and smallest members take the max and the min.
   Returns the surviving root. */
static inline int32_t unite(uf_ctx *c, int32_t u, int32_t w) {
    join(c, u);
    join(c, w);
    int32_t ru = find(c, u), rv = find(c, w);
    if (ru == rv) return ru;
    c->counts[TABLE_READS] += 2;
    if (c->size[rv] > c->size[ru] || (c->size[rv] == c->size[ru] && rv < ru)) {
        int32_t t = ru;
        ru = rv;
        rv = t;
    }
    c->parent[rv] = ru;
    c->size[ru] += c->size[rv];
    c->parity[ru] ^= c->parity[rv];
    c->boundary_sides[ru] |= c->boundary_sides[rv];
    if (c->growth_steps[rv] > c->growth_steps[ru]) c->growth_steps[ru] = c->growth_steps[rv];
    if (c->low[rv] < c->low[ru]) c->low[ru] = c->low[rv];
    return ru;
}

/* The exported find and union, for the tests of hand-built tables. Growth
   calls the static bodies above, which an exported function could not
   inline: under -fPIC a call to it may be interposed. */
int32_t uf_find(uf_ctx *c, int32_t v) { return find(c, v); }

int32_t uf_union(uf_ctx *c, int32_t u, int32_t w) { return unite(c, u, w); }

/* Root of v by a read-only walk of the parent table: no table read is
   counted and no path is compressed. */
static inline int32_t root_of(const int32_t *parent, int32_t v) {
    while (parent[v] != v) v = parent[v];
    return v;
}

#define SEED_REFUSED 1 /* uf_grow: bad defect ids */

/* One decode's growth from the first k ids in `defects`: uf_reset, uf_seed,
   then passes until every cluster is even or frozen on a boundary. Each
   pass grows every incident half-edge of every odd, unfrozen cluster by one
   step; an edge reaching the fully grown state goes on the fusion edge stack
   (FES), which is drained last in first out after the pass. A drained edge
   to LEFT or RIGHT marks its cluster's side and joins `fused_boundary`; an
   internal one sets its slot's bit in both ends' `grown` masks and unites
   their clusters. Returns 0, or SEED_REFUSED before any state changes
   unless the ids are strictly ascending in [0, n_internal). */
int64_t uf_grow(uf_ctx *c, int64_t k) {
    const uf_graph g = *c->g; /* a local copy, which the uint8_t stores cannot alias */
    const int64_t *ids = c->defects;
    if (k > g.n_internal) return SEED_REFUSED;
    for (int64_t i = 0, prev = -1; i < k; prev = ids[i++])
        if (ids[i] <= prev || ids[i] >= g.n_internal) return SEED_REFUSED;
    uf_reset(c);
    uf_seed(c, k);
    int64_t *counts = c->counts, words = (g.n_internal + 63) / 64;
    for (;;) {
        /* mark every member of an odd cluster off the boundary; each
           cluster's root is one of its members */
        int grows = 0;
        for (int64_t i = 0; i < counts[N_TOUCHED_V]; i++) {
            int32_t v = c->touched_v[i], r = root_of(c->parent, v);
            if (!c->parity[r] || c->boundary_sides[r]) continue;
            c->growth_steps[r] += v == r;
            set_bit(c->bits, words, v);
            grows = 1;
        }
        if (!grows) return 0;
        counts[PASSES]++;
        int32_t n_scan = drain_bits(c->bits, words, c->scan);
        int64_t n_touched_e = counts[N_TOUCHED_E], n_te = n_touched_e;
        int32_t n_fes = 0;
        /* without branches: every edge is written to both logs' next entry
           (touched_e and fes hold one entry more than there are edges), and
           the entry is kept where the state goes 0 -> 1 or 1 -> 2 */
        for (int32_t i = 0; i < n_scan; i++) {
            int32_t v = (int32_t)c->scan[i];
            for (int32_t j = g.adj_start[v]; j < g.adj_start[v + 1]; j++) {
                int32_t e = g.adj_edge[j];
                uint8_t s = c->edge_state[e];
                c->edge_state[e] = (uint8_t)(s + (s < 2));
                c->touched_e[n_te] = e;
                n_te += s == 0;
                c->fes[n_fes] = e;
                n_fes += s == 1;
            }
        }
        counts[N_TOUCHED_E] = n_te;
        int32_t *log = c->pass_log + 3 * (counts[PASSES] - 1);
        log[0] = (int32_t)counts[N_TOUCHED_V];
        log[1] = (int32_t)n_touched_e;
        log[2] = n_fes;
        while (n_fes) {
            int32_t e = c->fes[--n_fes];
            int32_t u = g.edges_u[e], w = g.edges_v[e];
            if (w >= g.n_internal) {
                c->boundary_sides[find(c, u)] |= w == g.n_internal ? LEFT_SIDE : RIGHT_SIDE;
                c->fused_boundary[counts[N_FUSED_BOUNDARY]++] = e;
            } else {
                c->grown[u] |= (uint8_t)(1u << g.edge_slot[e]);
                c->grown[w] |= (uint8_t)(1u << g.edge_slot[g.n_edges + e]);
                unite(c, u, w);
            }
        }
    }
}

/* The Gr-Gen stage: uf_grow, then, when it accepts the defects, the Gr-Gen
   read counts of the growth into counts[STM_ROW_READS..FES_POPS]: per pass,
   the STM rows (g->stm_rows) that hold a member vertex or file a touched
   edge (under the row of its internal end, edges_u) before the pass starts;
   the member vertices scanned at each pass start; and the fusion edges
   popped. The low words of the vertex bitmap serve as the row bitmap, which
   never marks the summary, and are left cleared. Returns what uf_grow
   returns. */
int64_t uf_run_grgen(uf_ctx *c, int64_t k) {
    int64_t refused = uf_grow(c, k);
    if (refused) return refused;
    const uf_graph g = *c->g;
    int64_t rows = 0, iv = 0, ie = 0, *counts = c->counts;
    counts[STM_ROW_READS] = counts[MEMBER_SCANS] = counts[FES_POPS] = 0;
    for (int64_t p = 0; p < counts[PASSES]; p++) {
        const int32_t *log = c->pass_log + 3 * p;
        for (; iv < log[0]; iv++) rows += set_new_bit(c, g.stm_rows[c->touched_v[iv]]);
        for (; ie < log[1]; ie++) rows += set_new_bit(c, g.stm_rows[g.edges_u[c->touched_e[ie]]]);
        counts[STM_ROW_READS] += rows;
        counts[MEMBER_SCANS] += log[0];
        counts[FES_POPS] += log[2];
    }
    int64_t n_rows = g.stm_rows[g.n_internal - 1] + 1;
    memset(c->bits, 0, (size_t)((n_rows + 63) / 64) * sizeof *c->bits);
    return 0;
}

/* The virtual vertex a boundary cluster with these sides is entered from:
   LEFT when both sides are touched. */
static inline int32_t entry_vertex(int32_t n_int, uint8_t sides) {
    return sides & LEFT_SIDE ? n_int : n_int + 1;
}

/* Depth-first search from the visited vertex u over the fully grown edges
   to unvisited internal vertices, in CSR order: each frame keeps its
   vertex's grown slots not yet followed. Appends one (edge, leafward,
   rootward) triple per edge taken to `edges` from entry k on; returns the
   new k. */
static inline int64_t dfs_tree(uf_ctx *c, const uf_graph *g, int32_t u, int32_t *edges,
                               int64_t k) {
    int32_t sp = 1;
    c->stack[0] = u;
    c->stack[1] = c->grown[u];
    while (sp) {
        int32_t x = c->stack[2 * sp - 2], j = -1;
        uint32_t slots = (uint32_t)c->stack[2 * sp - 1];
        while (slots) {
            int32_t i = g->adj_start[x] + __builtin_ctz(slots);
            slots &= slots - 1;
            if (!c->visited[g->adj_far[i]]) {
                j = i;
                break;
            }
        }
        if (j < 0) {
            sp--;
            continue;
        }
        int32_t w = g->adj_far[j];
        c->stack[2 * sp - 1] = (int32_t)slots;
        c->visited[w] = 1;
        edges[3 * k] = g->adj_edge[j];
        edges[3 * k + 1] = w;
        edges[3 * k + 2] = x;
        k++;
        c->stack[2 * sp] = w;
        c->stack[2 * sp + 1] = c->grown[w];
        sp++;
    }
    return k;
}

#define FOREST_ODD_CLUSTER (-1) /* uf_forest: an odd cluster off the boundary */
#define FOREST_BAD_TREE (-2)    /* uf_forest: a spanning tree of the wrong size */

/* DFS spanning tree per cluster over fully grown edges, written as the
   context's int32 forest record: m, k, then root, start vertex, vertex
   count, boundary flag, tree edge count and growth count of each of the m
   trees, then k (edge, leafward, rootward) triples, tree by tree in DFS
   visit order. A forest has at most n_internal edges, one per internal
   vertex.

   Trees are ordered by the smallest vertex of their cluster, the traversal
   root, which each root keeps in `low`. A boundary cluster is entered
   instead from its virtual vertex (LEFT when both sides are touched)
   through the fully grown edge to it from its smallest member that has
   one, found in `fused_boundary` before the trees. A cluster is connected
   by its fully grown internal edges, so the DFS from that entry reaches
   every member and the tree needs no second entry. The DFS follows the
   `grown` masks and reads no edge state. Makes no find. The record's header
   is emptied first and written last, so the record is whole even after an
   error. Returns the record length, or FOREST_ODD_CLUSTER (scan[0] = root)
   or FOREST_BAD_TREE (scan[0..2] = root, edges, expected edges). */
int64_t uf_forest(uf_ctx *c) {
    const uf_graph g = *c->g; /* a local copy, which the uint8_t stores cannot alias */
    int32_t n_int = (int32_t)g.n_internal, *rec = c->forest;
    int64_t words = (g.n_internal + 63) / 64;
    rec[0] = rec[1] = 0;
    for (int64_t i = 0; i < c->counts[N_TOUCHED_V]; i++) c->visited[c->touched_v[i]] = 0;
    for (int64_t i = 0; i < c->counts[N_TOUCHED_V]; i++) {
        int32_t r = c->touched_v[i];
        if (c->parent[r] != r) continue;
        set_bit(c->bits, words, c->low[r]);
        c->entry[r] = -1;
    }
    for (int64_t i = 0; i < c->counts[N_FUSED_BOUNDARY]; i++) {
        int32_t e = c->fused_boundary[i], u = g.edges_u[e], r = root_of(c->parent, u);
        if (g.edges_v[e] == entry_vertex(n_int, c->boundary_sides[r]) &&
            (c->entry[r] < 0 || u < g.edges_u[c->entry[r]]))
            c->entry[r] = e;
    }
    /* the clusters' smallest vertices, ascending */
    int32_t m = drain_bits(c->bits, words, c->scan);
    int32_t *root = rec + 2, *start = root + m, *n_vertices = start + m;
    int32_t *boundary = n_vertices + m, *n_edges = boundary + m, *growth = n_edges + m;
    int32_t *edges = growth + m;
    int64_t k = 0;
    for (int32_t t = 0; t < m; t++) {
        int32_t low = (int32_t)c->scan[t], r = root_of(c->parent, low);
        uint8_t sides = c->boundary_sides[r];
        if (c->parity[r] && !sides) {
            c->scan[0] = r;
            return FOREST_ODD_CLUSTER;
        }
        int32_t s = low, u = low, expect = c->size[r] - 1;
        int64_t k0 = k;
        if (sides) {
            s = entry_vertex(n_int, sides);
            expect = c->size[r];
            u = c->entry[r] < 0 ? -1 : g.edges_u[c->entry[r]]; /* -1: sides set by hand */
            if (u >= 0) {
                edges[3 * k] = c->entry[r];
                edges[3 * k + 1] = u;
                edges[3 * k + 2] = s;
                k++;
            }
        }
        if (u >= 0) {
            c->visited[u] = 1;
            k = dfs_tree(c, &g, u, edges, k);
        }
        if (k - k0 != expect) {
            c->scan[0] = r;
            c->scan[1] = k - k0;
            c->scan[2] = expect;
            return FOREST_BAD_TREE;
        }
        root[t] = r;
        start[t] = s;
        n_vertices[t] = c->size[r];
        boundary[t] = sides != 0;
        n_edges[t] = (int32_t)(k - k0);
        growth[t] = c->growth_steps[r];
    }
    rec[0] = m;
    rec[1] = (int32_t)k;
    return 2 + FOREST_COLUMNS * (int64_t)m + 3 * k;
}

#define PEEL_BAD_DEFECT (-1) /* uf_peel: a defect off every tree, or repeated */
#define PEEL_LEFTOVER (-2)   /* uf_peel: a defect left over at a root off the boundary */
enum { HELD = 1, IN_TREE = 2 }; /* bits of a vertex's `held` byte */

/* Reverse-order peeling of the context's forest record: pop tree edges leaf
   first; an edge whose leafward endpoint holds a defect joins the
   correction and flips the rootward endpoint's mark, which a boundary
   entry point, a virtual vertex, absorbs. Every one of the first n ids
   staged in `defects` must be a vertex of a tree, given once: a leafward
   endpoint or the root of a tree off the boundary. Writes the correction
   in ascending edge order to `scan` and returns its size (at most the record's k); otherwise
   PEEL_BAD_DEFECT with scan[0] = the index of the first defect that is not
   such a vertex or repeats one, or PEEL_LEFTOVER with scan[0] = the first
   root off the boundary where a defect is left over. Its scratch is the
   context's `held` marks and `chosen` edge bits, which every return,
   a refused peel's too, leaves clear: every tree is peeled. */
int64_t uf_peel(uf_ctx *c, int64_t n) {
    const int32_t *rec = c->forest;
    int32_t m = rec[0], k = rec[1];
    const int32_t *start = rec + 2 + m, *boundary = start + 2 * m, *n_edges = boundary + m;
    const int32_t *edges = n_edges + 2 * m; /* past the growth counts */
    int64_t n_int = c->g->n_internal, words = (c->g->n_edges + 63) / 64, bad = -1, leftover = -1;
    uint8_t *held = c->held;
    for (int64_t i = 0; i < k; i++) held[edges[3 * i + 1]] = IN_TREE;
    for (int32_t t = 0; t < m; t++)
        if (!boundary[t]) held[start[t]] = IN_TREE;
    for (int64_t i = 0; i < n && bad < 0; i++) {
        int64_t v = c->defects[i];
        if (v < 0 || v >= n_int || held[v] != IN_TREE)
            bad = i;
        else
            held[v] |= HELD;
    }
    for (int32_t t = 0, j = 0; t < m; t++) {
        j += n_edges[t];
        for (int32_t i = j - 1; i >= j - n_edges[t]; i--) {
            int32_t e = edges[3 * i], child = edges[3 * i + 1], parent = edges[3 * i + 2];
            uint8_t b = held[child] & HELD;
            held[child] = 0;
            if (b) {
                set_bit(c->chosen, words, e);
                if (parent < n_int) held[parent] ^= HELD; /* not a boundary entry point */
            }
        }
        if (!boundary[t]) {
            if (held[start[t]] & HELD && leftover < 0) leftover = start[t];
            held[start[t]] = 0;
        }
    }
    int32_t n_corr = drain_bits(c->chosen, words, c->scan);
    if (bad < 0 && leftover < 0) return n_corr;
    c->scan[0] = bad >= 0 ? bad : leftover;
    return bad >= 0 ? PEEL_BAD_DEFECT : PEEL_LEFTOVER;
}

/* The Corr stage: uf_peel with the defects that the last accepted uf_grow
   seeded, the first N_SEEDED entries of touched_v, widened into `defects`. */
int64_t uf_run_corr(uf_ctx *c) {
    int64_t k = c->counts[N_SEEDED];
    for (int64_t i = 0; i < k; i++) c->defects[i] = c->touched_v[i];
    return uf_peel(c, k);
}

/* Sampling. `bitgen_t` is numpy's bit generator interface, declared as in
   `numpy/random/bitgen.h`, and `random_geometric` is numpy's geometric
   distribution, linked from numpy's static library `libnpyrandom.a`; both are
   declared here so that the kernel compiles without numpy's headers. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

int64_t random_geometric(bitgen_t *bitgen_state, double p);

/* Philox4x64-10 (Salmon et al., SC 2011) with the state and output order of
   `numpy.random.Philox`: each refill first increments the 256-bit counter,
   then buffers the four words of its block. */
__extension__ typedef unsigned __int128 uint128;

typedef struct {
    uint64_t ctr[4], key[2], buffer[4];
    int buffer_pos, has_uint32; /* buffer_pos 4: the buffer is empty */
    uint32_t uinteger;          /* the high half of a word whose low half was used */
} philox_state;

static void philox4x64_10(const uint64_t ctr[4], const uint64_t key[2], uint64_t out[4]) {
    uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3], k0 = key[0], k1 = key[1];
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        uint128 p0 = (uint128)0xD2E7470EE14C6C93ULL * c0, p1 = (uint128)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
}

static uint64_t philox_next64(void *st) {
    philox_state *s = st;
    if (s->buffer_pos < 4) return s->buffer[s->buffer_pos++];
    for (int i = 0; i < 4 && ++s->ctr[i] == 0; i++) continue; /* carry */
    philox4x64_10(s->ctr, s->key, s->buffer);
    s->buffer_pos = 1;
    return s->buffer[0];
}

static uint32_t philox_next32(void *st) {
    philox_state *s = st;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    uint64_t x = philox_next64(st);
    s->has_uint32 = 1;
    s->uinteger = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

static double philox_next_double(void *st) {
    return (double)(philox_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* The failed edges of one trial, as `numpy.random.Generator(Philox(key,
   counter)).geometric(p)` draws them, with the key (key0, key1) and the
   counter (0, 0, 0, trial) of a fresh `Philox`: each draw is the gap to the
   next failed edge, clipped to n_edges + 1 (a tiny p saturates it at
   INT64_MAX), and the gaps accumulate from edge -1. Writes the ascending ids
   below n_edges to `out` (room for n_edges) and returns their number. p
   must lie in [0, 0.5); p = 0 draws nothing. */
int64_t uf_sample(uint64_t key0, uint64_t key1, uint64_t trial, double p, int64_t n_edges,
                  int64_t *out) {
    if (!(p > 0.0)) return 0;
    philox_state s = {{0, 0, 0, trial}, {key0, key1}, {0, 0, 0, 0}, 4, 0, 0};
    bitgen_t gen = {&s, philox_next64, philox_next32, philox_next_double, philox_next64};
    int64_t n = 0;
    for (int64_t e = -1;;) {
        int64_t gap = random_geometric(&gen, p);
        e += gap < n_edges + 1 ? gap : n_edges + 1;
        if (e >= n_edges) return n;
        out[n++] = e;
    }
}
