"""C sources of the ``cc`` provider.

One translation unit, compiled once per source hash by
:mod:`repro.compiled._cc` into a cached shared object.  Every function is a
line-for-line translation of the reference kernels in
:mod:`repro.compiled.kernels_py` (property-tested against them), plus three
cc-only extensions the pure-Python/numba providers do not carry:

* ``repro_broadcast_r0_block`` — the fused multi-step broadcast driver for
  the paper's sparse ``r = 0`` regime: flood + count + completion detection
  + mobility apply for a whole pre-drawn block of steps in one call;
* ``repro_process_r0_block`` — the same for the lazy-walk process kernels
  (frog, informed coverage, cover time, predator–prey), switching on the
  kernel kind and reading lazy choices from per-trial flat streams;
* ``repro_delta_step`` — the edge-diff core of the compiled incremental
  connectivity engine: mover detection, incident-edge removal, around-mover
  candidate generation and min-label union-find over the maintained edge
  set.

Everything is single-threaded by construction (determinism is part of the
backend contract); numerical semantics match numpy exactly — ``rint`` under
the default FE_TONEAREST mode is round-half-to-even like ``np.rint``, and
the reflection uses a non-negative modulo like ``np.mod``.
"""

from __future__ import annotations

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

typedef int64_t i64;
typedef uint8_t u8;

static const i64 PROP_DX[5] = {0, 1, -1, 0, 0};
static const i64 PROP_DY[5] = {0, 0, 0, 1, -1};

/* ------------------------------------------------------------------ */
/* mobility apply kernels                                             */
/* ------------------------------------------------------------------ */

/* The lazy move rule, in place: point p takes proposal c unless that
 * leaves the grid or (with a free_mask) lands on a blocked node. */
static void lazy_move(i64 *p, i64 side, i64 c, const u8 *free_mask)
{
    i64 nx = p[0] + PROP_DX[c], ny = p[1] + PROP_DY[c];
    if (nx >= 0 && nx < side && ny >= 0 && ny < side &&
        (!free_mask || free_mask[nx * side + ny])) { p[0] = nx; p[1] = ny; }
}

void repro_apply_lazy(i64 n, i64 side, const i64 *pos, const i64 *choice, i64 *out)
{
    for (i64 i = 0; i < n; i++) {
        out[2 * i] = pos[2 * i];
        out[2 * i + 1] = pos[2 * i + 1];
        lazy_move(out + 2 * i, side, choice[i], 0);
    }
}

void repro_apply_masked(i64 n, i64 side, const u8 *free_mask,
                        const i64 *pos, const i64 *choice, i64 *out)
{
    for (i64 i = 0; i < n; i++) {
        out[2 * i] = pos[2 * i];
        out[2 * i + 1] = pos[2 * i + 1];
        lazy_move(out + 2 * i, side, choice[i], free_mask);
    }
}

static i64 reflect1(i64 v, i64 side)
{
    if (side == 1) return 0;
    i64 period = 2 * (side - 1);
    i64 m = v % period;
    if (m < 0) m += period;
    if (m >= side) m = period - m;
    return m;
}

void repro_apply_brownian(i64 n, i64 side, const i64 *pos, const double *disp, i64 *out)
{
    for (i64 i = 0; i < 2 * n; i++)
        out[i] = reflect1(pos[i] + (i64)rint(disp[i]), side);
}

/* ------------------------------------------------------------------ */
/* fused r = 0 flooding                                               */
/* ------------------------------------------------------------------ */

void repro_flood_r0(i64 n_trials, i64 k, i64 side, i64 n_nodes,
                    const i64 *pos, u8 *informed, i64 *table, i64 epoch, i64 *counts)
{
    for (i64 r = 0; r < n_trials; r++) {
        const i64 *p = pos + r * k * 2;
        u8 *inf = informed + r * k;
        i64 *tab = table + r * n_nodes;
        for (i64 i = 0; i < k; i++)
            if (inf[i]) tab[p[2 * i] * side + p[2 * i + 1]] = epoch;
        i64 cnt = 0;
        for (i64 i = 0; i < k; i++)
            if (tab[p[2 * i] * side + p[2 * i + 1]] == epoch) { inf[i] = 1; cnt++; }
        counts[r] = cnt;
    }
}

/*
 * Fused multi-step r = 0 broadcast driver.  Runs up to `steps` iterations
 * of flood -> count -> completion check -> mobility apply entirely in C,
 * consuming pre-drawn mobility blocks.  apply_kind: 0 none (static),
 * 1 lazy, 2 masked, 3 brownian.  `ichoice` is the (A, steps, k) int64 draw
 * block (lazy/masked), `fdisp` the (A, steps, k, 2) double block
 * (brownian).  `done_at` must arrive filled with -1; `counts_out` is the
 * (steps, A) record, -1 meaning "trial already finished, nothing recorded".
 * Returns the number of steps actually run (short only when every trial
 * finished).
 */
i64 repro_broadcast_r0_block(i64 A, i64 k, i64 side, i64 n_nodes, i64 steps,
                             i64 apply_kind, const u8 *free_mask,
                             const i64 *ichoice, const double *fdisp,
                             i64 *pos, u8 *informed, i64 *table, i64 epoch0,
                             i64 *done_at, i64 *counts_out)
{
    i64 remaining = A;
    i64 s = 0;
    for (; s < steps && remaining > 0; s++) {
        i64 epoch = epoch0 + s + 1;
        for (i64 a = 0; a < A; a++) {
            if (done_at[a] >= 0) { counts_out[s * A + a] = -1; continue; }
            i64 *p = pos + a * k * 2;
            u8 *inf = informed + a * k;
            i64 *tab = table + a * n_nodes;
            for (i64 i = 0; i < k; i++)
                if (inf[i]) tab[p[2 * i] * side + p[2 * i + 1]] = epoch;
            i64 cnt = 0;
            for (i64 i = 0; i < k; i++)
                if (tab[p[2 * i] * side + p[2 * i + 1]] == epoch) { inf[i] = 1; cnt++; }
            counts_out[s * A + a] = cnt;
            if (cnt == k) {
                /* Completed this step: record and stop advancing the trial
                 * (its pre-drawn block entries are simply never read, which
                 * leaves every generator exactly where the per-step loop
                 * would leave it). */
                done_at[a] = s;
                remaining--;
                continue;
            }
            if (apply_kind == 1 || apply_kind == 2) {
                const i64 *ch = ichoice + (a * steps + s) * k;
                const u8 *fm = apply_kind == 2 ? free_mask : 0;
                for (i64 i = 0; i < k; i++) lazy_move(p + 2 * i, side, ch[i], fm);
            } else if (apply_kind == 3) {
                const double *d = fdisp + (a * steps + s) * k * 2;
                for (i64 i = 0; i < 2 * k; i++)
                    p[i] = reflect1(p[i] + (i64)rint(d[i]), side);
            }
        }
    }
    return s;
}

/*
 * Fused multi-step r = 0 driver of the lazy-walk process kernels.  kind:
 * 1 frog, 2 informed coverage, 3 cover time, 4 predator-prey.  Runs steps
 * s0 .. steps-1 of one block; each step of each unfinished row a does
 *   1. the co-location interaction through the epoch table (cover: none;
 *      frog and coverage: flood `mask`; predator-prey: the first kp points
 *      capture the living preys of `mask`);
 *   2. the count and the visited marks;
 *   3. completion bookkeeping;
 *   4. the lazy moves of that step's movers (cover moves first, then
 *      marks, like its serial step; a row that completes does not move).
 * Lazy choices come from per-trial flat streams: row a reads trial
 * rows[a]'s int8 row `stream + rows[a] * stride` from cursor[rows[a]]
 * (advanced in place) up to end[rows[a]].  Before each step the call
 * returns s when some unfinished row holds fewer than `need` values, so
 * the caller can refill and resume at s; otherwise it returns `steps`, or
 * the step at which every row had finished.  Step s stamps the epoch
 * table (A rows of n_nodes) with t0 + s + 1.  mask is (A, P - kp) u8,
 * visited (A, n_visit) u8 and vcount (A,) its counts; a row is covered
 * when its count reaches n_visit (the kernel's node count, which may
 * exceed the grid's).  Event times are absolute (t0 + s) and land in the
 * full-R arrays time_a / time_b by trial index: activation, broadcast +
 * coverage, cover (t0 + s + 1) or extinction time.  done_at and
 * counts_out are as in the broadcast block.
 */
i64 repro_process_r0_block(i64 kind, i64 A, i64 P, i64 kp, i64 preys_move,
                           i64 side, i64 n_nodes, i64 n_visit,
                           i64 s0, i64 steps, i64 need,
                           const i64 *rows, const int8_t *stream, i64 stride,
                           i64 *cursor, const i64 *end,
                           i64 *pos, u8 *mask, u8 *visited, i64 *vcount,
                           i64 *table, i64 t0,
                           i64 *time_a, i64 *time_b, i64 *done_at, i64 *counts_out)
{
    i64 m = P - kp;
    for (i64 s = s0; s < steps; s++) {
        i64 remaining = 0;
        for (i64 a = 0; a < A; a++) {
            if (done_at[a] >= 0) continue;
            if (end[rows[a]] - cursor[rows[a]] < need) return s;
            remaining++;
        }
        if (remaining == 0) return s;
        i64 t = t0 + s, epoch = t + 1;
        for (i64 a = 0; a < A; a++) {
            i64 *out = counts_out + s * A + a;
            if (done_at[a] >= 0) { *out = -1; continue; }
            i64 tr = rows[a];
            const int8_t *st = stream + tr * stride;
            i64 cur = cursor[tr];
            i64 *p = pos + a * P * 2;
            u8 *mk = mask ? mask + a * m : 0;
            u8 *vis = visited ? visited + a * n_visit : 0;
            i64 *tab = table + a * n_nodes;
            i64 cnt = 0;
            int done = 0;
            if (kind == 1 || kind == 2) {
                for (i64 i = 0; i < P; i++)
                    if (mk[i]) tab[p[2 * i] * side + p[2 * i + 1]] = epoch;
                for (i64 i = 0; i < P; i++)
                    if (tab[p[2 * i] * side + p[2 * i + 1]] == epoch) { mk[i] = 1; cnt++; }
                *out = cnt;
                if (kind == 1) {
                    if (cnt == P) { time_a[tr] = t; done = 1; }
                } else {
                    for (i64 i = 0; i < P; i++) {
                        i64 node = p[2 * i] * side + p[2 * i + 1];
                        if (mk[i] && !vis[node]) { vis[node] = 1; vcount[a]++; }
                    }
                    if (vcount[a] == n_visit && time_b[tr] < 0) time_b[tr] = t;
                    if (cnt == P && time_a[tr] < 0) time_a[tr] = t;
                    done = time_a[tr] >= 0 && time_b[tr] >= 0;
                }
                if (!done)
                    for (i64 i = 0; i < P; i++)
                        if (kind == 2 || mk[i]) lazy_move(p + 2 * i, side, st[cur++], 0);
            } else if (kind == 3) {
                for (i64 i = 0; i < P; i++) {
                    lazy_move(p + 2 * i, side, st[cur++], 0);
                    i64 node = p[2 * i] * side + p[2 * i + 1];
                    if (!vis[node]) { vis[node] = 1; vcount[a]++; }
                }
                *out = vcount[a];
                if (vcount[a] == n_visit) { time_a[tr] = t + 1; done = 1; }
            } else {
                for (i64 i = 0; i < kp; i++) tab[p[2 * i] * side + p[2 * i + 1]] = epoch;
                for (i64 j = 0; j < m; j++) {
                    if (!mk[j]) continue;
                    i64 *q = p + 2 * (kp + j);
                    if (tab[q[0] * side + q[1]] == epoch) mk[j] = 0;
                    else cnt++;
                }
                *out = cnt;
                if (cnt == 0) { time_a[tr] = t; done = 1; }
                else {
                    for (i64 i = 0; i < kp; i++) lazy_move(p + 2 * i, side, st[cur++], 0);
                    if (preys_move)
                        for (i64 j = 0; j < m; j++)
                            if (mk[j]) lazy_move(p + 2 * (kp + j), side, st[cur++], 0);
                }
            }
            cursor[tr] = cur;
            if (done) done_at[a] = s;
        }
    }
    return steps;
}

/* ------------------------------------------------------------------ */
/* component labelling                                                */
/* ------------------------------------------------------------------ */

typedef struct { i64 key; i64 idx; } KeyIdx;

static int cmp_keyidx(const void *a, const void *b)
{
    const KeyIdx *x = (const KeyIdx *)a, *y = (const KeyIdx *)b;
    if (x->key < y->key) return -1;
    if (x->key > y->key) return 1;
    if (x->idx < y->idx) return -1;
    if (x->idx > y->idx) return 1;
    return 0;
}

static i64 uf_find(i64 *parent, i64 i)
{
    i64 root = i;
    while (parent[root] != root) root = parent[root];
    while (parent[i] != root) { i64 nxt = parent[i]; parent[i] = root; i = nxt; }
    return root;
}

static void uf_union(i64 *parent, i64 *rank_, i64 a, i64 b)
{
    i64 ra = uf_find(parent, a), rb = uf_find(parent, b);
    if (ra == rb) return;
    if (rank_[ra] < rank_[rb]) parent[ra] = rb;
    else if (rank_[ra] > rank_[rb]) parent[rb] = ra;
    else { parent[rb] = ra; rank_[ra]++; }
}

/* First sorted slot holding `key`, or `n` when absent. */
static i64 lower_bound(const KeyIdx *ki, i64 n, i64 key)
{
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (ki[mid].key < key) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

static void min_label_pass(i64 *parent, i64 *minid, i64 base, i64 k, i64 *out)
{
    for (i64 i = 0; i < k; i++) minid[i] = k;
    for (i64 i = 0; i < k; i++) {
        i64 root = uf_find(parent, i);
        if (i < minid[root]) minid[root] = i;
    }
    for (i64 i = 0; i < k; i++) out[i] = base + minid[parent[i]];
}

/*
 * Batched component labels: for every trial, two agents share a label iff
 * they are connected in G_t(radius) under the Manhattan metric; the label
 * is trial * k + (min flat index of the component).  Scratch requirements:
 * ki (k KeyIdx), parent/rank/minid (k i64 each).  Returns 0.
 */
i64 repro_labels_batch(i64 n_trials, i64 k, const i64 *pos, double radius,
                       i64 *labels, KeyIdx *ki, i64 *parent, i64 *rank_, i64 *minid)
{
    i64 cell = radius <= 0 ? 1 : (i64)ceil(radius);
    for (i64 r = 0; r < n_trials; r++) {
        const i64 *p = pos + r * k * 2;
        i64 *lab = labels + r * k;
        i64 xmin = p[0], ymin = p[1], ymax = p[1];
        for (i64 i = 1; i < k; i++) {
            if (p[2 * i] < xmin) xmin = p[2 * i];
            if (p[2 * i + 1] < ymin) ymin = p[2 * i + 1];
            if (p[2 * i + 1] > ymax) ymax = p[2 * i + 1];
        }
        if (radius <= 0) {
            i64 width = ymax - ymin + 1;
            for (i64 i = 0; i < k; i++) {
                ki[i].key = (p[2 * i] - xmin) * width + (p[2 * i + 1] - ymin);
                ki[i].idx = i;
            }
            qsort(ki, (size_t)k, sizeof(KeyIdx), cmp_keyidx);
            i64 start = 0;
            while (start < k) {
                i64 stop = start + 1;
                while (stop < k && ki[stop].key == ki[start].key) stop++;
                i64 lo = ki[start].idx; /* sorted ties by idx: first is min */
                for (i64 s = start; s < stop; s++) lab[ki[s].idx] = r * k + lo;
                start = stop;
            }
            continue;
        }
        i64 width = (ymax - ymin) / cell + 3;
        for (i64 i = 0; i < k; i++) {
            i64 cx = (p[2 * i] - xmin) / cell;
            i64 cy = (p[2 * i + 1] - ymin) / cell;
            ki[i].key = cx * width + cy + 1;
            ki[i].idx = i;
        }
        qsort(ki, (size_t)k, sizeof(KeyIdx), cmp_keyidx);
        for (i64 i = 0; i < k; i++) { parent[i] = i; rank_[i] = 0; }
        i64 offs[4];
        offs[0] = 1; offs[1] = width - 1; offs[2] = width; offs[3] = width + 1;
        for (i64 si = 0; si < k; si++) {
            i64 i = ki[si].idx;
            i64 xi = p[2 * i], yi = p[2 * i + 1];
            for (i64 sj = si + 1; sj < k && ki[sj].key == ki[si].key; sj++) {
                i64 j = ki[sj].idx;
                i64 dist = llabs(xi - p[2 * j]) + llabs(yi - p[2 * j + 1]);
                if ((double)dist <= radius) uf_union(parent, rank_, i, j);
            }
            for (int o = 0; o < 4; o++) {
                i64 target = ki[si].key + offs[o];
                for (i64 sj = lower_bound(ki, k, target);
                     sj < k && ki[sj].key == target; sj++) {
                    i64 j = ki[sj].idx;
                    i64 dist = llabs(xi - p[2 * j]) + llabs(yi - p[2 * j + 1]);
                    if ((double)dist <= radius) uf_union(parent, rank_, i, j);
                }
            }
        }
        for (i64 i = 0; i < k; i++) parent[i] = uf_find(parent, i);
        min_label_pass(parent, minid, r * k, k, lab);
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* incremental edge-diff engine (one trial per call)                  */
/* ------------------------------------------------------------------ */

/*
 * One incremental step of one trial's visibility graph at radius > 0.
 *
 * State owned by the caller: `statepos` (k, 2) -- the positions the current
 * `edges` list (n_edges entries of lo * k + hi) was built against.  The
 * call classifies movers (new vs. stored positions; `initialized == 0`
 * treats every agent as a mover over an empty edge list), drops edges with
 * a mover endpoint, generates the candidate pairs around movers (full 3x3
 * cell neighbourhood; mover-mover pairs deduplicated by keeping (m, j)
 * only when j is not a mover or j > m), and rebuilds labels with a
 * min-label union-find over the maintained edge set.
 *
 * Returns the required edge capacity when it exceeds `capacity` -- in that
 * case `*n_edges_out` holds the (already compacted) survivor count, no new
 * edges were appended and `statepos` is untouched, so the call can simply
 * be repeated with a larger buffer.  Returns 0 on success, with
 * `*n_edges_out` the new edge count, `statepos` updated and `labels`
 * filled (base + min component member).
 *
 * Scratch, all caller-allocated: mover (k u8), ki (k KeyIdx),
 * parent/rank/minid (k i64 each).
 */
i64 repro_delta_step(i64 k, double radius, const i64 *newpos, i64 *statepos,
                     i64 initialized, i64 base, i64 *edges, i64 n_edges,
                     i64 capacity, i64 *labels, i64 *n_edges_out, u8 *mover,
                     KeyIdx *ki, i64 *parent, i64 *rank_, i64 *minid)
{
    i64 cell = radius <= 0 ? 1 : (i64)ceil(radius);
    i64 n_movers = 0;
    for (i64 i = 0; i < k; i++) {
        mover[i] = !initialized ||
                   statepos[2 * i] != newpos[2 * i] ||
                   statepos[2 * i + 1] != newpos[2 * i + 1];
        if (mover[i]) n_movers++;
    }
    /* Drop edges with a mover endpoint (idempotent for fixed statepos). */
    i64 kept = 0;
    for (i64 e = 0; e < n_edges; e++) {
        i64 lo = edges[e] / k, hi = edges[e] % k;
        if (!mover[lo] && !mover[hi]) edges[kept++] = edges[e];
    }
    if (n_movers > 0) {
        /* Cell table over the *new* positions. */
        i64 xmin = newpos[0], ymin = newpos[1], ymax = newpos[1];
        for (i64 i = 1; i < k; i++) {
            if (newpos[2 * i] < xmin) xmin = newpos[2 * i];
            if (newpos[2 * i + 1] < ymin) ymin = newpos[2 * i + 1];
            if (newpos[2 * i + 1] > ymax) ymax = newpos[2 * i + 1];
        }
        i64 width = (ymax - ymin) / cell + 3;
        for (i64 i = 0; i < k; i++) {
            i64 cx = (newpos[2 * i] - xmin) / cell;
            i64 cy = (newpos[2 * i + 1] - ymin) / cell;
            ki[i].key = cx * width + cy + 1;
            ki[i].idx = i;
        }
        qsort(ki, (size_t)k, sizeof(KeyIdx), cmp_keyidx);
        /* Two passes over the mover neighbourhoods: count, then commit. */
        i64 n_new = 0;
        for (int pass = 0; pass < 2; pass++) {
            if (pass == 1) {
                if (kept + n_new > capacity) { *n_edges_out = kept; return kept + n_new; }
                n_new = 0;
            }
            for (i64 m = 0; m < k; m++) {
                if (!mover[m]) continue;
                i64 xm = newpos[2 * m], ym = newpos[2 * m + 1];
                i64 mkey = ((xm - xmin) / cell) * width + (ym - ymin) / cell + 1;
                for (i64 dx = -1; dx <= 1; dx++) {
                    for (i64 dy = -1; dy <= 1; dy++) {
                        i64 target = mkey + dx * width + dy;
                        for (i64 sj = lower_bound(ki, k, target);
                             sj < k && ki[sj].key == target; sj++) {
                            i64 j = ki[sj].idx;
                            if (j == m || (mover[j] && j <= m)) continue;
                            i64 dist = llabs(xm - newpos[2 * j]) +
                                       llabs(ym - newpos[2 * j + 1]);
                            if ((double)dist > radius) continue;
                            if (pass == 1) {
                                i64 lo = m < j ? m : j, hi = m < j ? j : m;
                                edges[kept + n_new] = lo * k + hi;
                            }
                            n_new++;
                        }
                    }
                }
            }
        }
        kept += n_new;
        for (i64 i = 0; i < 2 * k; i++) statepos[i] = newpos[i];
    }
    *n_edges_out = kept;
    for (i64 i = 0; i < k; i++) { parent[i] = i; rank_[i] = 0; }
    for (i64 e = 0; e < kept; e++)
        uf_union(parent, rank_, edges[e] / k, edges[e] % k);
    for (i64 i = 0; i < k; i++) parent[i] = uf_find(parent, i);
    min_label_pass(parent, minid, base, k, labels);
    return 0;
}
"""
