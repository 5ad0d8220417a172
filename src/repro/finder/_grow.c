/*
 * Compiled Phase I absorb kernel: one linear ordering per call, and the
 * cut and internal-net curves of all its prefixes.
 *
 * A port of the scalar grower's loop
 * (repro.finder.ordering.LinearOrderingGrower) with a value-validated stale
 * skip, over the KernelTables CSR buffers (all int64, read only).  It
 * reproduces the scalar grower's orderings exactly:
 *
 *   - heap order is (-weight, cut delta, insertion counter); the counter is
 *     unique, so the pop sequence is a strict total order and does not
 *     depend on the heap's internal layout;
 *   - an entry is live iff its cell is outside the group and its recorded
 *     weight equals the cell's current weight (stale entries are skipped);
 *   - after an absorb, the heap is compacted to its live entries when it
 *     holds more than 8192 entries and more than 4x the frontier;
 *   - weights are accumulated pin by pin in CSR slice order.
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
 * and with them the tie-breaking.
 */

#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double weight;     /* connection weight when pushed (larger first) */
    int64_t cut_delta; /* net-cut change when pushed (smaller first) */
    int64_t counter;   /* insertion order (older first) */
    int64_t cell;
} entry_t;

typedef struct {
    /* static tables */
    const int64_t *cell_ptr;
    const int64_t *cell_nets;
    const int64_t *net_degrees;
    const int64_t *degree2;
    const int64_t *update_ptr;
    const int64_t *update_flat;
    int64_t lambda_skip;
    /* per-ordering state */
    double *weight;
    int64_t *cutstate;
    int64_t *inside_count;
    unsigned char *in_group;
    entry_t *heap;
    int64_t heap_size;
    int64_t heap_capacity;
    int64_t counter;
    int64_t compactions;
    int64_t frontier_count;
    int64_t *ordering;
    int64_t length;
    /* prefix curves, one entry per absorbed cell */
    int64_t *cuts;
    int64_t *internal;
    int64_t cut;
    int64_t internal_nets;
} grower_t;

static int before(const entry_t *a, const entry_t *b)
{
    if (a->weight != b->weight)
        return a->weight > b->weight;
    if (a->cut_delta != b->cut_delta)
        return a->cut_delta < b->cut_delta;
    return a->counter < b->counter;
}

static void sift_down(entry_t *heap, int64_t size, int64_t pos)
{
    entry_t item = heap[pos];
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && before(&heap[child + 1], &heap[child]))
            child++;
        if (!before(&heap[child], &item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

static int push(grower_t *g, double weight, int64_t cut_delta, int64_t cell)
{
    if (g->heap_size == g->heap_capacity) {
        int64_t capacity = g->heap_capacity ? 2 * g->heap_capacity : 1024;
        entry_t *grown = realloc(g->heap, (size_t)capacity * sizeof(entry_t));
        if (grown == NULL)
            return -1;
        g->heap = grown;
        g->heap_capacity = capacity;
    }
    entry_t item = {weight, cut_delta, g->counter++, cell};
    int64_t pos = g->heap_size++;
    while (pos > 0) {
        int64_t parent = (pos - 1) / 2;
        if (!before(&item, &g->heap[parent]))
            break;
        g->heap[pos] = g->heap[parent];
        pos = parent;
    }
    g->heap[pos] = item;
    return 0;
}

static entry_t pop(grower_t *g)
{
    entry_t top = g->heap[0];
    g->heap_size--;
    if (g->heap_size > 0) {
        g->heap[0] = g->heap[g->heap_size];
        sift_down(g->heap, g->heap_size, 0);
    }
    return top;
}

static int is_live(const grower_t *g, const entry_t *entry)
{
    return !g->in_group[entry->cell] && entry->weight == g->weight[entry->cell];
}

/* Drop stale entries (keeping each frontier cell's one live entry with its
 * original counter) and re-heapify; the pop order is unchanged. */
static void compact(grower_t *g)
{
    int64_t kept = 0;
    for (int64_t i = 0; i < g->heap_size; i++)
        if (is_live(g, &g->heap[i]))
            g->heap[kept++] = g->heap[i];
    g->heap_size = kept;
    for (int64_t pos = kept / 2 - 1; pos >= 0; pos--)
        sift_down(g->heap, kept, pos);
    g->compactions++;
}

static int absorb(grower_t *g, int64_t cell)
{
    double *weight = g->weight;
    int64_t *cutstate = g->cutstate;
    const unsigned char *in_group = g->in_group;

    g->in_group[cell] = 1;
    if (weight[cell] != 0.0)
        g->frontier_count--;
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
            double old_weight = weight[other];
            if (first_touch && old_weight == 0.0)
                g->frontier_count++;
            double new_weight = old_weight + delta;
            weight[other] = new_weight;
            int64_t state = cutstate[other] + cut_increment;
            cutstate[other] = state;
            if (push(g, new_weight, g->degree2[other] - state, other) != 0)
                return -1;
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
 * the net cut / internal-net count of the first k + 1 cells.  telemetry
 * receives [heap pushes, heap compactions].  Returns the ordering length,
 * or -1 when the working state could not be allocated.
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
    int64_t *ordering,
    int64_t *cuts,
    int64_t *internal,
    int64_t *telemetry)
{
    grower_t g = {0};
    int64_t result = -1;
    g.cell_ptr = cell_ptr;
    g.cell_nets = cell_nets;
    g.net_degrees = net_degrees;
    g.degree2 = degree2;
    g.update_ptr = update_ptr;
    g.update_flat = update_flat;
    g.lambda_skip = lambda_skip;
    g.ordering = ordering;
    g.cuts = cuts;
    g.internal = internal;
    g.weight = calloc((size_t)num_cells, sizeof(double));
    g.cutstate = calloc((size_t)num_cells, sizeof(int64_t));
    g.in_group = calloc((size_t)num_cells, 1);
    g.inside_count = calloc((size_t)(num_nets > 0 ? num_nets : 1), sizeof(int64_t));
    if (!g.weight || !g.cutstate || !g.in_group || !g.inside_count)
        goto done;

    if (absorb(&g, seed) != 0)
        goto done;
    while (g.length < max_length && g.heap_size > 0) {
        entry_t entry = pop(&g);
        if (!is_live(&g, &entry))
            continue;
        if (absorb(&g, entry.cell) != 0)
            goto done;
        if (g.heap_size > 8192 && g.heap_size > 4 * g.frontier_count)
            compact(&g);
    }
    telemetry[0] = g.counter;
    telemetry[1] = g.compactions;
    result = g.length;

done:
    free(g.weight);
    free(g.cutstate);
    free(g.in_group);
    free(g.inside_count);
    free(g.heap);
    return result;
}
