/* Native C kernels for the canonical path engine.
 *
 * Compiled at first use by repro/kernels/native_backend.py (system cc,
 * cached shared object) and driven through ctypes over the *same* flat
 * CSR buffers the pure-Python reference loops walk: int64 indptr /
 * indices, float64 weights, and the per-view dead-edge / dead-node
 * byte masks.  Every routine is a statement-for-statement emulation of
 * the reference backend (repro/kernels/python_backend.py): the same
 * lazy binary heap keyed by (distance, node index), the same canonical
 * (dist, index) tie rules, and counter accumulation at exactly the
 * same program points.  Bitwise output and counter parity therefore
 * needs no closed-form argument — both implementations execute the
 * same abstract instruction stream over IEEE-754 doubles (each label
 * is one `parent label + weight` add; compile without FP contraction).
 *
 * Counters are returned through out-parameters; the Python wrapper
 * flushes them into repro.perf.COUNTERS, keeping this file free of any
 * Python API dependency (it is plain C99, linked only against libm).
 * All functions return 0 on success and a negative status on failure
 * (-1 allocation, -2..-4 bad decomposition input, -5 a predecessor
 * array that is not a tree); the wrapper raises.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef unsigned char u8;

/* ---------------------------------------------------------------- *
 * Binary heap of (key, index) pairs ordered exactly like CPython's
 * heapq over (float, int) tuples: smaller key first, ties by smaller
 * index.  The order is total over distinct nodes, so the pop sequence
 * is a pure function of the pushed multiset — internal layout
 * differences from heapq cannot change which item each pop returns.
 *
 * Each pair is packed into one unsigned 128-bit integer (key bits in
 * the high half, node index in the low half) so the heap order is a
 * single branch-free integer compare instead of a two-branch tuple
 * compare — the sift loops are branch-misprediction-bound, and this
 * cuts the measured Dijkstra wall time by ~30%.  The packing is
 * order-exact because every key pushed here is a non-negative path
 * length (0.0, sums of non-negative weights, or +inf from repair's
 * unreachable-boundary offers; never NaN or -0.0), and non-negative
 * IEEE-754 doubles order identically to their raw bit patterns.
 * ---------------------------------------------------------------- */

#ifndef __SIZEOF_INT128__
#error "the native kernel backend needs a compiler with unsigned __int128 (gcc/clang)"
#endif

typedef unsigned __int128 hkey;

typedef struct {
    hkey *a;
    i64 len;
    i64 cap;
} heap;

static inline hkey
hpack(double key, i64 idx)
{
    union { double d; uint64_t u; } bits;
    bits.d = key;
    return ((hkey)bits.u << 64) | (uint64_t)idx;
}

static inline double
hkey_of(hkey x)
{
    union { double d; uint64_t u; } bits;
    bits.u = (uint64_t)(x >> 64);
    return bits.d;
}

static inline i64
hidx_of(hkey x)
{
    return (i64)(uint64_t)x;
}

static int
heap_push(heap *h, double key, i64 idx)
{
    if (h->len == h->cap) {
        i64 cap = h->cap ? h->cap * 2 : 64;
        hkey *a = (hkey *)realloc(h->a, (size_t)cap * sizeof(hkey));
        if (a == NULL)
            return -1;
        h->a = a;
        h->cap = cap;
    }
    hkey item = hpack(key, idx);
    i64 i = h->len++;
    while (i > 0) {
        i64 parent = (i - 1) >> 1;
        if (item >= h->a[parent])
            break;
        h->a[i] = h->a[parent];
        i = parent;
    }
    h->a[i] = item;
    return 0;
}

static hkey
heap_pop(heap *h)
{
    hkey top = h->a[0];
    h->len--;
    if (h->len > 0) {
        /* heapq-style: sift the hole down to a leaf picking the
         * smaller child with a branch-free select (when the right
         * sibling is out of range, a[child + 1] is a[len] — the
         * just-detached last element, initialized memory — and the
         * bounds bit masks the compare off), then sift the displaced
         * last element back up.  One compare per level instead of
         * two, same pop order. */
        hkey last = h->a[h->len];
        i64 i = 0;
        i64 child = 1;
        while (child < h->len) {
            child += (i64)((child + 1 < h->len) &
                           (h->a[child + 1] < h->a[child]));
            h->a[i] = h->a[child];
            i = child;
            child = 2 * i + 1;
        }
        while (i > 0) {
            i64 parent = (i - 1) >> 1;
            if (last >= h->a[parent])
                break;
            h->a[i] = h->a[parent];
            i = parent;
        }
        h->a[i] = last;
    }
    return top;
}

/* ---------------------------------------------------------------- *
 * Canonical Dijkstra — the reference lazy-heap loop.
 * ---------------------------------------------------------------- */

/* Core over caller-provided scratch so the batched driver can reuse
 * allocations across sources.  `want`/`n_targets < 0` means
 * exhaustive; otherwise `want` marks the distinct live non-source
 * targets and `remaining` counts them. */
static int
dijkstra_core(const i64 *indptr, const i64 *indices, const double *weights,
              i64 n, const u8 *edge_dead, const u8 *node_dead, i64 source,
              u8 *want, i64 remaining, double *dist, i64 *pred,
              double *best, heap *h, i64 *out_exhausted,
              i64 *out_relaxations, i64 *out_settled)
{
    i64 settled = 0;
    i64 relaxations = 0;
    i64 exhausted = 1;
    i64 tracking = want != NULL;

    for (i64 i = 0; i < n; i++) {
        dist[i] = INFINITY;
        pred[i] = -1;
        best[i] = INFINITY;
    }
    best[source] = 0.0;
    h->len = 0;
    if (heap_push(h, 0.0, source))
        return -1;

    while (h->len) {
        hkey top = heap_pop(h);
        i64 u = hidx_of(top);
        if (!isinf(dist[u]))
            continue;
        double d_u = hkey_of(top);
        dist[u] = d_u;
        settled++;
        if (tracking) {
            if (want[u]) {
                want[u] = 0;
                remaining--;
            }
            if (remaining == 0) {
                exhausted = h->len == 0;
                break;
            }
        }
        i64 stop = indptr[u + 1];
        for (i64 slot = indptr[u]; slot < stop; slot++) {
            i64 v = indices[slot];
            if (node_dead[v] || edge_dead[slot])
                continue;
            relaxations++;
            if (!isinf(dist[v]))
                continue;
            double candidate = d_u + weights[slot];
            if (candidate < best[v]) {
                best[v] = candidate;
                pred[v] = u;
                if (heap_push(h, candidate, v))
                    return -1;
            }
        }
    }
    *out_exhausted = exhausted;
    *out_relaxations += relaxations;
    *out_settled += settled;
    return 0;
}

int
repro_dijkstra(const i64 *indptr, const i64 *indices, const double *weights,
               i64 n, const u8 *edge_dead, const u8 *node_dead, i64 source,
               const i64 *targets, i64 n_targets, double *dist, i64 *pred,
               i64 *out_exhausted, i64 *out_relaxations, i64 *out_settled)
{
    double *best = (double *)malloc((size_t)n * sizeof(double));
    if (best == NULL)
        return -1;
    u8 *want = NULL;
    i64 remaining = -1;
    if (n_targets >= 0) {
        want = (u8 *)calloc((size_t)n, 1);
        if (want == NULL) {
            free(best);
            return -1;
        }
        remaining = 0;
        for (i64 k = 0; k < n_targets; k++) {
            i64 t = targets[k];
            if (t != source && !node_dead[t] && !want[t]) {
                want[t] = 1;
                remaining++;
            }
        }
    }
    heap h = {NULL, 0, 0};
    *out_relaxations = 0;
    *out_settled = 0;
    int status = dijkstra_core(indptr, indices, weights, n, edge_dead,
                               node_dead, source, want, remaining, dist,
                               pred, best, &h, out_exhausted,
                               out_relaxations, out_settled);
    free(best);
    free(want);
    free(h.a);
    return status;
}

/* ---------------------------------------------------------------- *
 * Canonical index-ordered BFS with optional early target exit.
 * ---------------------------------------------------------------- */

static int
cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a;
    i64 y = *(const i64 *)b;
    return (x > y) - (x < y);
}

static int
bfs_core(const i64 *indptr, const i64 *indices, i64 n, const u8 *edge_dead,
         const u8 *node_dead, i64 source, i64 target, double *dist,
         i64 *pred, i64 *frontier, i64 *next_frontier, i64 *out_relaxations,
         i64 *out_settled)
{
    for (i64 i = 0; i < n; i++) {
        dist[i] = INFINITY;
        pred[i] = -1;
    }
    dist[source] = 0.0;
    i64 settled = 1;
    i64 relaxations = 0;
    if (source == target) {
        *out_settled += settled;
        return 0;
    }
    i64 flen = 1;
    frontier[0] = source;
    while (flen) {
        qsort(frontier, (size_t)flen, sizeof(i64), cmp_i64);
        i64 nlen = 0;
        for (i64 k = 0; k < flen; k++) {
            i64 u = frontier[k];
            double d_next = dist[u] + 1.0;
            i64 stop = indptr[u + 1];
            for (i64 slot = indptr[u]; slot < stop; slot++) {
                i64 v = indices[slot];
                if (node_dead[v] || edge_dead[slot])
                    continue;
                relaxations++;
                if (isinf(dist[v])) {
                    dist[v] = d_next;
                    pred[v] = u;
                    settled++;
                    if (v == target) {
                        *out_relaxations += relaxations;
                        *out_settled += settled;
                        return 0;
                    }
                    next_frontier[nlen++] = v;
                }
            }
        }
        i64 *swap = frontier;
        frontier = next_frontier;
        next_frontier = swap;
        flen = nlen;
    }
    *out_relaxations += relaxations;
    *out_settled += settled;
    return 0;
}

int
repro_bfs(const i64 *indptr, const i64 *indices, i64 n, const u8 *edge_dead,
          const u8 *node_dead, i64 source, i64 target, double *dist,
          i64 *pred, i64 *out_relaxations, i64 *out_settled)
{
    i64 *frontier = (i64 *)malloc(2 * (size_t)n * sizeof(i64));
    if (frontier == NULL)
        return -1;
    *out_relaxations = 0;
    *out_settled = 0;
    int status = bfs_core(indptr, indices, n, edge_dead, node_dead, source,
                          target, dist, pred, frontier, frontier + n,
                          out_relaxations, out_settled);
    free(frontier);
    return status;
}

/* ---------------------------------------------------------------- *
 * Batched exhaustive rows: one source per block row, scratch reused
 * across the whole batch.  Semantically identical to the caller's
 * per-source loop over repro_dijkstra / repro_bfs.
 * ---------------------------------------------------------------- */

int
repro_rows_many(const i64 *indptr, const i64 *indices, const double *weights,
                i64 n, const u8 *edge_dead, const u8 *node_dead,
                const i64 *sources, i64 n_sources, i64 unit,
                double *dist_block, i64 *pred_block, i64 *out_relaxations,
                i64 *out_settled)
{
    *out_relaxations = 0;
    *out_settled = 0;
    int status = 0;
    if (unit) {
        i64 *frontier = (i64 *)malloc(2 * (size_t)n * sizeof(i64));
        if (frontier == NULL)
            return -1;
        for (i64 k = 0; k < n_sources && status == 0; k++) {
            status = bfs_core(indptr, indices, n, edge_dead, node_dead,
                              sources[k], -1, dist_block + k * n,
                              pred_block + k * n, frontier, frontier + n,
                              out_relaxations, out_settled);
        }
        free(frontier);
        return status;
    }
    double *best = (double *)malloc((size_t)n * sizeof(double));
    if (best == NULL)
        return -1;
    heap h = {NULL, 0, 0};
    i64 exhausted = 1;
    for (i64 k = 0; k < n_sources && status == 0; k++) {
        status = dijkstra_core(indptr, indices, weights, n, edge_dead,
                               node_dead, sources[k], NULL, -1,
                               dist_block + k * n, pred_block + k * n, best,
                               &h, &exhausted, out_relaxations, out_settled);
    }
    free(best);
    free(h.a);
    return status;
}

/* ---------------------------------------------------------------- *
 * Preorder of one source's predecessor tree — the reference
 * children-list + stack loop.  Children are listed in increasing index
 * order and the stack pops the last one pushed, so `order` is the
 * reference's exact sequence.  `pos[x]` is x's place in `order` (-1
 * when the tree does not reach x) and `size[x]` the size of x's
 * subtree (0 when unreached): the subtree below x is
 * order[pos[x] .. pos[x] + size[x]).  *out_len receives the number of
 * reached nodes, size[root].
 * ---------------------------------------------------------------- */

int
repro_preorder(const i64 *pred, i64 n, i64 root, i64 *order, i64 *pos,
               i64 *size, i64 *out_len)
{
    /* first[p] .. first[p + 1] delimits p's children in `kids`. */
    i64 *first = (i64 *)calloc((size_t)n + 1, sizeof(i64));
    i64 *kids = (i64 *)malloc(((size_t)n + 1) * sizeof(i64));
    i64 *stack = (i64 *)malloc(((size_t)n + 1) * sizeof(i64));
    if (first == NULL || kids == NULL || stack == NULL) {
        free(first);
        free(kids);
        free(stack);
        return -1;
    }
    for (i64 x = 0; x < n; x++)
        if (pred[x] >= 0)
            first[pred[x] + 1]++;
    for (i64 p = 0; p < n; p++)
        first[p + 1] += first[p];
    for (i64 x = 0; x < n; x++) {
        i64 p = pred[x];
        if (p >= 0)
            kids[first[p]++] = x;
    }
    /* The fill advanced first[p] to the end of p's run: shift back. */
    for (i64 p = n; p > 0; p--)
        first[p] = first[p - 1];
    first[0] = 0;
    for (i64 x = 0; x < n; x++) {
        pos[x] = -1;
        size[x] = 0;
    }
    i64 len = 0;
    i64 top = 0;
    stack[top++] = root;
    while (top) {
        i64 x = stack[--top];
        if (len == n || top + first[x + 1] - first[x] > n) {
            /* More visits than nodes: pred holds a cycle through root. */
            free(first);
            free(kids);
            free(stack);
            return -5;
        }
        pos[x] = len;
        order[len++] = x;
        for (i64 k = first[x]; k < first[x + 1]; k++)
            stack[top++] = kids[k];
    }
    for (i64 k = len - 1; k >= 0; k--) {
        i64 x = order[k];
        size[x] += 1;
        if (k > 0)
            size[pred[x]] += size[x];
    }
    free(first);
    free(kids);
    free(stack);
    *out_len = len;
    return 0;
}

/* ---------------------------------------------------------------- *
 * Ramalingam–Reps re-settle of a non-empty affected subtree — the
 * reference boundary-offer + bounded-heap loop.  The affected region
 * is a union of preorder slices of the source's pre-failure tree:
 * order[spans[2k] .. spans[2k + 1]) for k < n_spans (disjoint, never
 * holding the source, per the caller's contract).  The pre-failure
 * labels `dist`/`pred` are only read; `new_dist`/`new_pred` receive a
 * copy of them, repaired in place.
 * ---------------------------------------------------------------- */

int
repro_repair(const i64 *indptr, const i64 *indices, const double *weights,
             i64 n, const u8 *edge_dead, const u8 *node_dead,
             const double *dist, const i64 *pred, const i64 *order,
             const i64 *spans, i64 n_spans, i64 unit, double *new_dist,
             i64 *new_pred, i64 *out_relaxations, i64 *out_settled)
{
    double *best_d = (double *)malloc((size_t)n * sizeof(double));
    i64 *best_p = (i64 *)malloc((size_t)n * sizeof(i64));
    u8 *aff_mask = (u8 *)calloc((size_t)n, 1);
    if (best_d == NULL || best_p == NULL || aff_mask == NULL) {
        free(best_d);
        free(best_p);
        free(aff_mask);
        return -1;
    }
    if (new_dist != dist)
        memcpy(new_dist, dist, (size_t)n * sizeof(double));
    if (new_pred != pred)
        memcpy(new_pred, pred, (size_t)n * sizeof(i64));
    /* best_* entries are only ever read for affected nodes; -1 marks
     * "no offer yet" (the reference dict's missing key). */
    for (i64 s = 0; s < n_spans; s++) {
        for (i64 k = spans[2 * s]; k < spans[2 * s + 1]; k++) {
            i64 x = order[k];
            new_dist[x] = INFINITY;
            new_pred[x] = -1;
            best_p[x] = -1;
            aff_mask[x] = 1;
        }
    }

    i64 relaxations = 0;
    heap h = {NULL, 0, 0};
    /* Boundary offers: surviving edges from intact nodes into the
     * region, equal offers resolved by the canonical
     * (dist[parent], parent index) rule.  The offers, and so the heap
     * contents, do not depend on the order the region is scanned in. */
    for (i64 s = 0; s < n_spans; s++) {
        for (i64 k = spans[2 * s]; k < spans[2 * s + 1]; k++) {
            i64 x = order[k];
            if (node_dead[x])
                continue;
            i64 stop = indptr[x + 1];
            for (i64 slot = indptr[x]; slot < stop; slot++) {
                i64 u = indices[slot];
                if (aff_mask[u] || node_dead[u] || edge_dead[slot])
                    continue;
                relaxations++;
                double candidate = new_dist[u] + (unit ? 1.0 : weights[slot]);
                i64 op = best_p[x];
                if (op < 0 || candidate < best_d[x] ||
                    (candidate == best_d[x] &&
                     (new_dist[u] < new_dist[op] ||
                      (new_dist[u] == new_dist[op] && u < op)))) {
                    best_d[x] = candidate;
                    best_p[x] = u;
                }
            }
            if (best_p[x] >= 0 && heap_push(&h, best_d[x], x))
                goto oom;
        }
    }

    i64 settled = 0;
    while (h.len) {
        hkey top = heap_pop(&h);
        i64 x = hidx_of(top);
        double d_x = hkey_of(top);
        if (!isinf(new_dist[x]))
            continue;
        if (d_x != best_d[x])
            continue; /* stale entry superseded by a better offer */
        new_dist[x] = d_x;
        new_pred[x] = best_p[x];
        settled++;
        i64 stop = indptr[x + 1];
        for (i64 slot = indptr[x]; slot < stop; slot++) {
            i64 v = indices[slot];
            if (!aff_mask[v] || node_dead[v] || edge_dead[slot])
                continue;
            relaxations++;
            if (!isinf(new_dist[v]))
                continue;
            double candidate = d_x + (unit ? 1.0 : weights[slot]);
            i64 op = best_p[v];
            if (op < 0 || candidate < best_d[v] ||
                (candidate == best_d[v] &&
                 (d_x < new_dist[op] ||
                  (d_x == new_dist[op] && x < op)))) {
                best_d[v] = candidate;
                best_p[v] = x;
                if (heap_push(&h, candidate, v))
                    goto oom;
            }
        }
    }
    free(best_d);
    free(best_p);
    free(aff_mask);
    free(h.a);
    *out_relaxations = relaxations;
    *out_settled = settled;
    return 0;
oom:
    free(best_d);
    free(best_p);
    free(aff_mask);
    free(h.a);
    return -1;
}

/* ---------------------------------------------------------------- *
 * Min-pieces decomposition DP — forward pass, first-minimal-j ties —
 * over a whole batch of chains in one call.  Chain k occupies
 * q[offsets[k] .. offsets[k+1]) (node indices) with its prefix sums at
 * the same positions of cum; best/choice are written at the same
 * positions.  rows[v] is the oracle dist row of node v (NULL when the
 * caller supplied none), read in place: the DP looks up
 * rows[chain[j]][chain[i]] for every probe spanning more than one hop.
 * Returns -2 (and the offending flat position in *out_bad) when such a
 * probe needs a row that is missing, -3 when a node index falls
 * outside the row table or the row width, and -4 (with the chain
 * number) when offsets[k .. k+1] is not a range inside q.
 * ---------------------------------------------------------------- */

static int
costs_equal(double a, double b, double eps)
{
    /* abs(a - b) <= eps * max(1.0, abs(a), abs(b)) — the tolerance of
     * repro.graph.shortest_paths.costs_equal, same double ops. */
    double scale = fabs(a);
    double fb = fabs(b);
    if (fb > scale)
        scale = fb;
    if (scale < 1.0)
        scale = 1.0;
    return fabs(a - b) <= eps * scale;
}

int
repro_decompose_many(i64 nchains, const i64 *offsets, const i64 *q,
                     const double *cum, i64 total, const double *const *rows,
                     i64 nrows, i64 width, double eps, i64 *best,
                     i64 *choice, i64 *out_probes, i64 *out_bad)
{
    i64 probes = 0;
    for (i64 k = 0; k < nchains; k++) {
        i64 lo = offsets[k];
        if (lo < 0 || offsets[k + 1] < lo || offsets[k + 1] > total) {
            *out_bad = k;
            return -4;
        }
        i64 n = offsets[k + 1] - lo;
        const i64 *chain = q + lo;
        const double *c = cum + lo;
        i64 *b = best + lo;
        i64 *ch = choice + lo;
        i64 unset = n + 1;
        for (i64 i = 0; i < n; i++) {
            if (chain[i] < 0 || chain[i] >= width) {
                *out_bad = lo + i;
                return -3;
            }
            b[i] = unset;
            ch[i] = 0;
        }
        if (n == 0)
            continue;
        b[0] = 0;
        for (i64 i = 1; i < n; i++) {
            double cum_i = c[i];
            i64 ci = chain[i];
            i64 bi = unset;
            i64 cj = 0;
            for (i64 j = 0; j < i; j++) {
                i64 bj = b[j];
                if (bj == unset)
                    continue;
                probes++;
                if (i - j > 1) {
                    i64 cjn = chain[j];
                    const double *row = cjn < nrows ? rows[cjn] : NULL;
                    if (row == NULL) {
                        *out_bad = lo + j;
                        return -2;
                    }
                    double d = row[ci];
                    if (isinf(d) || !costs_equal(cum_i - c[j], d, eps))
                        continue;
                }
                i64 candidate = bj + 1;
                if (candidate < bi) {
                    bi = candidate;
                    cj = j;
                }
            }
            b[i] = bi;
            ch[i] = cj;
        }
    }
    *out_probes = probes;
    return 0;
}
