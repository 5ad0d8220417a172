/*
 * Compiled Phase I absorb kernel: one linear ordering per call, and the
 * cut and internal-net curves of all its prefixes.
 *
 * A port of the scalar grower's loop
 * (repro.finder.ordering.LinearOrderingGrower) over the KernelTables CSR
 * buffers (all int64, read only).  It reproduces the scalar grower's
 * orderings exactly:
 *
 *   - pop order is (-weight, cut delta, update counter); the counter is
 *     unique, so the pop sequence is a strict total order and does not
 *     depend on the heap's internal layout;
 *   - the frontier is an indexed 4-ary min-heap with one slot per cell
 *     (slot[cell] is its heap position + 1, 0 when the cell is not in the
 *     heap).  Each key is one unsigned 128-bit integer packing, from high
 *     to low bits, ~bits(weight) (positive doubles order like their bit
 *     patterns, so a larger weight pops first), cut delta + cut_bias and
 *     the update counter;
 *   - every update advances the counter and moves the cell's slot up to
 *     the new key when that key is smaller.  Weights only rise, so a
 *     changed weight always replaces the key.  When w + d == w in float64
 *     the old key stays unless the cut delta drops: the lazy heap this
 *     replaces kept both entries live and popped the older one with the
 *     smaller cut delta first, which is the smaller of the two keys;
 *   - weights are accumulated pin by pin in CSR slice order.
 *
 * A cell's cut delta lies in [-2 * maxdeg, maxdeg] (maxdeg: the largest
 * cell degree), so cut_bias = 2 * maxdeg makes the field non-negative, and
 * the counter gets the low counter_bits bits (both sized per netlist by
 * KernelTables).  An update whose counter would not fit stops the grow
 * with -2 instead of popping in a wrong order.
 *
 * While it absorbs a cell the kernel also counts, from the per-net inside
 * counts it keeps anyway, the prefix statistics Phase II scores: a net of
 * degree > 1 becomes cut on its first touch and internal (no longer cut)
 * when its last pin is absorbed; a degree-1 net is internal on its first
 * touch.  cuts[k] and internal[k] describe the first k + 1 cells, exactly
 * as repro.netlist.ops.scan_ordering_curves computes them afterwards.
 *
 * Build with -std=c99 -ffp-contract=off and never -ffast-math: a fused
 * multiply-add or a reassociated sum would change the weights' last bits
 * and with them the tie-breaking.  The 128-bit key needs a compiler with
 * unsigned __int128 (GCC and Clang on 64-bit targets); elsewhere the build
 * fails and the scalar grower runs instead.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

__extension__ typedef unsigned __int128 key128_t;

typedef struct {
    /* static tables */
    const int64_t *cell_ptr;
    const int64_t *cell_nets;
    const int64_t *net_degrees;
    const int64_t *degree2;
    const int64_t *update_ptr;
    const int64_t *update_flat;
    int64_t lambda_skip;
    int64_t cut_bias;
    int64_t counter_bits;
    /* per-ordering state */
    double *weight;
    int64_t *cutstate;
    int64_t *inside_count;
    unsigned char *in_group;
    key128_t *keys;    /* the heap, one entry per frontier cell */
    int64_t *cells;
    int64_t *slot;     /* per cell: heap position + 1, 0 when absent */
    int64_t heap_size;
    int64_t counter;
    int64_t *ordering;
    int64_t length;
    /* prefix curves, one entry per absorbed cell */
    int64_t *cuts;
    int64_t *internal;
    int64_t cut;
    int64_t internal_nets;
} grower_t;

static void place(grower_t *g, int64_t pos, key128_t key, int64_t cell)
{
    g->keys[pos] = key;
    g->cells[pos] = cell;
    g->slot[cell] = pos + 1;
}

/* Put (key, cell) at the hole `pos`, moving larger ancestors down. */
static void sift_up(grower_t *g, int64_t pos, key128_t key, int64_t cell)
{
    while (pos > 0) {
        int64_t parent = (pos - 1) / 4;
        if (g->keys[parent] <= key)
            break;
        place(g, pos, g->keys[parent], g->cells[parent]);
        pos = parent;
    }
    place(g, pos, key, cell);
}

/* Remove the least key; walk the hole at the root down to a leaf along the
 * least child, then sift the last entry up from there. */
static int64_t pop(grower_t *g)
{
    int64_t top = g->cells[0];
    g->slot[top] = 0;
    int64_t size = --g->heap_size;
    if (size == 0)
        return top;
    int64_t hole = 0;
    for (;;) {
        int64_t child = 4 * hole + 1;
        if (child >= size)
            break;
        int64_t end = child + 4 < size ? child + 4 : size;
        int64_t best = child;
        for (int64_t c = child + 1; c < end; c++)
            if (g->keys[c] < g->keys[best])
                best = c;
        place(g, hole, g->keys[best], g->cells[best]);
        hole = best;
    }
    sift_up(g, hole, g->keys[size], g->cells[size]);
    return top;
}

/* Record an update of `cell` to (weight, cut_delta); -2 when the counter
 * no longer fits its field. */
static int update(grower_t *g, int64_t cell, double weight, int64_t cut_delta)
{
    if (g->counter >> g->counter_bits)
        return -2;
    uint64_t bits;
    memcpy(&bits, &weight, sizeof bits);
    uint64_t low = ((uint64_t)(cut_delta + g->cut_bias) << g->counter_bits)
                   | (uint64_t)g->counter++;
    key128_t key = ((key128_t)~bits << 64) | low;
    int64_t pos = g->slot[cell] - 1;
    if (pos < 0)
        sift_up(g, g->heap_size++, key, cell);
    else if (key < g->keys[pos])
        sift_up(g, pos, key, cell);
    return 0;
}

static int absorb(grower_t *g, int64_t cell)
{
    double *weight = g->weight;
    int64_t *cutstate = g->cutstate;
    const unsigned char *in_group = g->in_group;

    g->in_group[cell] = 1;
    g->ordering[g->length++] = cell;

    for (int64_t p = g->cell_ptr[cell]; p < g->cell_ptr[cell + 1]; p++) {
        int64_t net = g->cell_nets[p];
        int64_t old_inside = g->inside_count[net];
        int64_t new_inside = old_inside + 1;
        g->inside_count[net] = new_inside;
        int64_t degree = g->net_degrees[net];
        if (old_inside == 0 && degree == 1) {
            g->internal_nets++; /* a single-pin net is internal at once */
        } else if (old_inside == 0) {
            g->cut++; /* the net starts crossing the boundary */
        } else if (new_inside == degree) {
            g->cut--; /* its last pin is absorbed */
            g->internal_nets++;
        }
        int64_t outside = degree - new_inside;
        if (outside == 0)
            continue; /* net fully absorbed */

        int first_touch = old_inside == 0;
        if (!first_touch && g->lambda_skip && outside >= g->lambda_skip)
            continue; /* the paper's lambda skip */

        double delta;
        int64_t cut_increment;
        if (first_touch) {
            delta = 1.0 / (double)(outside + 1);
            cut_increment = outside == 1 ? 2 : 1;
        } else {
            delta = 1.0 / (double)(outside + 1)
                    - 1.0 / (double)(degree - old_inside + 1);
            cut_increment = outside == 1 ? 1 : 0;
        }
        for (int64_t q = g->update_ptr[net]; q < g->update_ptr[net + 1]; q++) {
            int64_t other = g->update_flat[q];
            if (in_group[other])
                continue;
            double new_weight = weight[other] + delta;
            weight[other] = new_weight;
            int64_t state = cutstate[other] + cut_increment;
            cutstate[other] = state;
            if (update(g, other, new_weight, g->degree2[other] - state) != 0)
                return -2;
        }
    }
    g->cuts[g->length - 1] = g->cut;
    g->internal[g->length - 1] = g->internal_nets;
    return 0;
}

/*
 * Grow one ordering from `seed` until it holds `max_length` cells or the
 * frontier empties.  `ordering`, `cuts` and `internal` must each hold
 * max(1, min(max_length, cells)) entries; entry k of `cuts` / `internal` is
 * the net cut / internal-net count of the first k + 1 cells.  `cut_bias`
 * is 2 * the largest cell degree and `counter_bits` (1..63) the width of
 * the counter field.  telemetry receives [heap pushes].  Returns the
 * ordering length, -1 when the working state could not be allocated, or
 * -2 when the update counter outgrew `counter_bits`.
 */
int64_t repro_grow_ordering(
    int64_t num_cells,
    int64_t num_nets,
    const int64_t *cell_ptr,
    const int64_t *cell_nets,
    const int64_t *net_degrees,
    const int64_t *degree2,
    const int64_t *update_ptr,
    const int64_t *update_flat,
    int64_t seed,
    int64_t max_length,
    int64_t lambda_skip,
    int64_t cut_bias,
    int64_t counter_bits,
    int64_t *ordering,
    int64_t *cuts,
    int64_t *internal,
    int64_t *telemetry)
{
    grower_t g = {0};
    int64_t result = -1;
    size_t cells = (size_t)(num_cells > 0 ? num_cells : 1);
    g.cell_ptr = cell_ptr;
    g.cell_nets = cell_nets;
    g.net_degrees = net_degrees;
    g.degree2 = degree2;
    g.update_ptr = update_ptr;
    g.update_flat = update_flat;
    g.lambda_skip = lambda_skip;
    g.cut_bias = cut_bias;
    g.counter_bits = counter_bits;
    g.ordering = ordering;
    g.cuts = cuts;
    g.internal = internal;
    g.weight = calloc(cells, sizeof(double));
    g.cutstate = calloc(cells, sizeof(int64_t));
    g.in_group = calloc(cells, 1);
    g.slot = calloc(cells, sizeof(int64_t));
    g.keys = malloc(cells * sizeof(key128_t));
    g.cells = malloc(cells * sizeof(int64_t));
    g.inside_count = calloc((size_t)(num_nets > 0 ? num_nets : 1), sizeof(int64_t));
    if (!g.weight || !g.cutstate || !g.in_group || !g.slot || !g.keys || !g.cells
        || !g.inside_count)
        goto done;

    result = absorb(&g, seed);
    while (result == 0 && g.length < max_length && g.heap_size > 0)
        result = absorb(&g, pop(&g));
    if (result == 0) {
        telemetry[0] = g.counter;
        result = g.length;
    }

done:
    free(g.weight);
    free(g.cutstate);
    free(g.in_group);
    free(g.slot);
    free(g.keys);
    free(g.cells);
    free(g.inside_count);
    return result;
}
