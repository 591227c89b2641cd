/* Compiled twin of the pure-Python CDCL solver core.
 *
 * ``SolverCore``, dispatched to by ``repro.backend`` when this module
 * imports cleanly, is the CDCL inner core (watched-literal unit
 * propagation, 1-UIP conflict analysis with clause learning, the VSIDS
 * order-heap, geometric restarts, learned-clause reduction, solve
 * budgets, and LBD clause forgetting).  It runs the same search as
 * ``repro/sat/solver.py`` step for step, though not on the same data
 * layout: the pure side, for one, leaves a satisfied clause's watched pair
 * unswapped and pushes a variable onto its order heap only when the heap
 * holds no current entry for it.  The watcher-list append and swap-remove
 * order, the IEEE-double activity keys and the literal orders in learned
 * clauses are the same, so decisions, conflicts, propagation counts,
 * models, and UNSAT verdicts are identical to the pure backend on every
 * input.  The differential harness in ``tests/native/`` enforces this.
 *
 * The module is optional: the build is declared ``optional=True`` in
 * setup.py and the pure implementations remain the always-available
 * reference.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* ------------------------------------------------------------------ */
/* Growable int vector (watcher lists)                                 */
/* ------------------------------------------------------------------ */
typedef struct {
    int *data;
    int len;
    int cap;
} IntVec;

static int iv_push(IntVec *v, int value)
{
    if (v->len == v->cap) {
        int cap = v->cap ? v->cap * 2 : 4;
        int *data = (int *)realloc(v->data, (size_t)cap * sizeof(int));
        if (data == NULL)
            return -1;
        v->data = data;
        v->cap = cap;
    }
    v->data[v->len++] = value;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Clauses                                                             */
/* ------------------------------------------------------------------ */
typedef struct {
    int *lits;
    int size;
    int lbd;
    uint8_t learned;
} NClause;

/* ------------------------------------------------------------------ */
/* Order heap: entries (key=-activity, var), min-heap under the same   */
/* (key, var) lexicographic comparison Python applies to its tuples.   */
/* Only the set of distinct entries is observable (the pure backend's  */
/* heapq layout differs, but every pop removes the same minimum), so a */
/* standard binary heap reproduces the pure decision sequence exactly. */
/* ------------------------------------------------------------------ */
typedef struct {
    double key;
    int var;
} HeapEntry;

static inline int he_lt(HeapEntry a, HeapEntry b)
{
    return a.key < b.key || (a.key == b.key && a.var < b.var);
}

/* ------------------------------------------------------------------ */
/* SolverCore object                                                   */
/* ------------------------------------------------------------------ */
typedef struct {
    PyObject_HEAD
    int num_vars;
    int cap_vars;

    NClause *clauses;
    int num_clauses;
    int cap_clauses;
    int num_learned;

    IntVec *watches; /* size 2 * (cap_vars + 1); lit>0 -> 2*lit, lit<0 -> -2*lit+1 */

    int8_t *assign;  /* 0 unassigned, 1 true, -1 false */
    int *level;
    int *reason;     /* clause index, -1 = none */
    double *activity;
    uint8_t *phase;

    int *trail;
    int trail_len;
    int *trail_lim;
    int trail_lim_len;
    int trail_lim_cap;
    int queue_head;

    HeapEntry *heap;
    int heap_len;
    int heap_cap;

    double activity_increment;
    int trivially_unsat;

    long long conflicts;
    long long decisions;
    long long propagations;
    long long restarts;
    long long budget_exhaustions;
    long long forgotten_clauses;

    long long forget_limit; /* 0 = forgetting disabled */

    /* scratch */
    int8_t *mark;       /* add_clause dedup, per var */
    uint8_t *seen;      /* conflict analysis, per var */
    int *learned_buf;   /* learned clause under construction */
    int *level_mark;    /* LBD computation, per level */
    int level_mark_cap;
    int level_stamp;

    int mem_error; /* sticky allocation failure inside nogil sections */
} SolverCore;

static inline int widx(int lit)
{
    return lit > 0 ? 2 * lit : -2 * lit + 1;
}

static inline int litvar(int lit)
{
    return lit > 0 ? lit : -lit;
}

static inline int litval(SolverCore *s, int lit)
{
    int v = s->assign[litvar(lit)];
    if (v == 0)
        return 0;
    return lit > 0 ? v : -v;
}

static double mono_now(void)
{
#if defined(CLOCK_MONOTONIC)
    struct timespec ts;
    if (clock_gettime(CLOCK_MONOTONIC, &ts) == 0)
        return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
#endif
    return (double)time(NULL);
}

/* ---- heap primitives --------------------------------------------- */
static int heap_reserve(SolverCore *s, int need)
{
    if (need <= s->heap_cap)
        return 0;
    int cap = s->heap_cap ? s->heap_cap : 16;
    while (cap < need)
        cap *= 2;
    HeapEntry *heap = (HeapEntry *)realloc(s->heap, (size_t)cap * sizeof(HeapEntry));
    if (heap == NULL)
        return -1;
    s->heap = heap;
    s->heap_cap = cap;
    return 0;
}

static void heap_sift_up(HeapEntry *h, int pos)
{
    HeapEntry item = h[pos];
    while (pos > 0) {
        int parent = (pos - 1) / 2;
        if (!he_lt(item, h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

static void heap_sift_down(HeapEntry *h, int len, int pos)
{
    HeapEntry item = h[pos];
    for (;;) {
        int child = 2 * pos + 1;
        if (child >= len)
            break;
        if (child + 1 < len && he_lt(h[child + 1], h[child]))
            child++;
        if (!he_lt(h[child], item))
            break;
        h[pos] = h[child];
        pos = child;
    }
    h[pos] = item;
}

static int heap_push(SolverCore *s, double key, int var)
{
    if (heap_reserve(s, s->heap_len + 1) < 0) {
        s->mem_error = 1;
        return -1;
    }
    s->heap[s->heap_len].key = key;
    s->heap[s->heap_len].var = var;
    heap_sift_up(s->heap, s->heap_len);
    s->heap_len++;
    return 0;
}

static void heap_pop_root(SolverCore *s)
{
    s->heap_len--;
    if (s->heap_len > 0) {
        s->heap[0] = s->heap[s->heap_len];
        heap_sift_down(s->heap, s->heap_len, 0);
    }
}

static int rebuild_heap(SolverCore *s)
{
    if (heap_reserve(s, s->num_vars) < 0) {
        s->mem_error = 1;
        return -1;
    }
    s->heap_len = 0;
    for (int v = 1; v <= s->num_vars; v++) {
        if (s->assign[v] == 0) {
            s->heap[s->heap_len].key = -s->activity[v];
            s->heap[s->heap_len].var = v;
            s->heap_len++;
        }
    }
    for (int i = s->heap_len / 2 - 1; i >= 0; i--)
        heap_sift_down(s->heap, s->heap_len, i);
    return 0;
}

/* ---- variable growth --------------------------------------------- */
static int grow_var_arrays(SolverCore *s, int want)
{
    if (want <= s->cap_vars)
        return 0;
    int cap = s->cap_vars ? s->cap_vars : 16;
    while (cap < want)
        cap *= 2;

#define GROW(field, type)                                                     \
    do {                                                                      \
        type *p = (type *)realloc(s->field, ((size_t)cap + 1) * sizeof(type)); \
        if (p == NULL)                                                        \
            return -1;                                                        \
        s->field = p;                                                         \
    } while (0)

    GROW(assign, int8_t);
    GROW(level, int);
    GROW(reason, int);
    GROW(activity, double);
    GROW(phase, uint8_t);
    GROW(trail, int);
    GROW(mark, int8_t);
    GROW(seen, uint8_t);
#undef GROW
    int *lb = (int *)realloc(s->learned_buf, ((size_t)cap + 2) * sizeof(int));
    if (lb == NULL)
        return -1;
    s->learned_buf = lb;

    size_t old_watch = s->watches ? 2 * ((size_t)s->cap_vars + 1) : 0;
    size_t new_watch = 2 * ((size_t)cap + 1);
    IntVec *w = (IntVec *)realloc(s->watches, new_watch * sizeof(IntVec));
    if (w == NULL)
        return -1;
    memset(w + old_watch, 0, (new_watch - old_watch) * sizeof(IntVec));
    s->watches = w;

    s->cap_vars = cap;
    return 0;
}

static int reserve_trail_lim(SolverCore *s, int need)
{
    if (need <= s->trail_lim_cap)
        return 0;
    int cap = s->trail_lim_cap ? s->trail_lim_cap : 16;
    while (cap < need)
        cap *= 2;
    int *p = (int *)realloc(s->trail_lim, (size_t)cap * sizeof(int));
    if (p == NULL)
        return -1;
    s->trail_lim = p;
    s->trail_lim_cap = cap;
    return 0;
}

static int reserve_level_marks(SolverCore *s, int need)
{
    if (need <= s->level_mark_cap)
        return 0;
    int cap = s->level_mark_cap ? s->level_mark_cap : 16;
    while (cap < need)
        cap *= 2;
    int *p = (int *)realloc(s->level_mark, (size_t)cap * sizeof(int));
    if (p == NULL)
        return -1;
    memset(p + s->level_mark_cap, 0, (size_t)(cap - s->level_mark_cap) * sizeof(int));
    s->level_mark = p;
    s->level_mark_cap = cap;
    return 0;
}

static int core_reserve_vars(SolverCore *s, int num_vars)
{
    if (num_vars <= s->num_vars)
        return 0;
    if (grow_var_arrays(s, num_vars) < 0)
        return -1;
    for (int v = s->num_vars + 1; v <= num_vars; v++) {
        s->assign[v] = 0;
        s->level[v] = 0;
        s->reason[v] = -1;
        s->activity[v] = 0.0;
        s->phase[v] = 0;
        s->mark[v] = 0;
        s->seen[v] = 0;
        if (heap_push(s, -0.0, v) < 0)
            return -1;
    }
    s->num_vars = num_vars;
    return 0;
}

/* ---- clause attach ------------------------------------------------ */
static int attach_clause(SolverCore *s, const int *lits, int size, int learned, int lbd)
{
    if (s->num_clauses == s->cap_clauses) {
        int cap = s->cap_clauses ? s->cap_clauses * 2 : 16;
        NClause *c = (NClause *)realloc(s->clauses, (size_t)cap * sizeof(NClause));
        if (c == NULL) {
            s->mem_error = 1;
            return -1;
        }
        s->clauses = c;
        s->cap_clauses = cap;
    }
    int *copy = (int *)malloc((size_t)size * sizeof(int));
    if (copy == NULL) {
        s->mem_error = 1;
        return -1;
    }
    memcpy(copy, lits, (size_t)size * sizeof(int));
    int index = s->num_clauses;
    NClause *c = &s->clauses[index];
    c->lits = copy;
    c->size = size;
    c->learned = (uint8_t)learned;
    c->lbd = lbd;
    s->num_clauses++;
    if (learned)
        s->num_learned++;
    if (iv_push(&s->watches[widx(copy[0])], index) < 0 ||
        iv_push(&s->watches[widx(copy[1])], index) < 0) {
        s->mem_error = 1;
        return -1;
    }
    return index;
}

/* ---- assignment --------------------------------------------------- */
static int enqueue(SolverCore *s, int lit, int reason)
{
    int value = litval(s, lit);
    if (value == 1)
        return 1;
    if (value == -1)
        return 0;
    int v = litvar(lit);
    s->assign[v] = lit > 0 ? 1 : -1;
    s->level[v] = s->trail_lim_len;
    s->reason[v] = reason;
    s->phase[v] = lit > 0;
    s->trail[s->trail_len++] = lit;
    return 1;
}

/* ---- unit propagation (two watched literals) ---------------------- */
static int propagate(SolverCore *s)
{
    while (s->queue_head < s->trail_len) {
        int lit = s->trail[s->queue_head++];
        s->propagations++;
        int falsified = -lit;
        IntVec *ws = &s->watches[widx(falsified)];
        int index = 0;
        while (index < ws->len) {
            int ci = ws->data[index];
            NClause *c = &s->clauses[ci];
            int *cl = c->lits;
            if (cl[0] == falsified) {
                int tmp = cl[0];
                cl[0] = cl[1];
                cl[1] = tmp;
            }
            int first = cl[0];
            if (litval(s, first) == 1) {
                index++;
                continue;
            }
            int found = 0;
            for (int p = 2; p < c->size; p++) {
                int cand = cl[p];
                if (litval(s, cand) != -1) {
                    cl[p] = cl[1];
                    cl[1] = cand;
                    if (iv_push(&s->watches[widx(cand)], ci) < 0) {
                        s->mem_error = 1;
                        return -2;
                    }
                    ws->data[index] = ws->data[ws->len - 1];
                    ws->len--;
                    found = 1;
                    break;
                }
            }
            if (found)
                continue;
            if (litval(s, first) == -1)
                return ci;
            enqueue(s, first, ci);
            index++;
        }
    }
    return -1;
}

/* ---- VSIDS -------------------------------------------------------- */
static int bump_activity(SolverCore *s, int v)
{
    s->activity[v] += s->activity_increment;
    if (s->activity[v] > 1e100) {
        for (int i = 1; i <= s->num_vars; i++)
            s->activity[i] *= 1e-100;
        s->activity_increment *= 1e-100;
        if (rebuild_heap(s) < 0)
            return -1;
    }
    return 0;
}

/* ---- conflict analysis (first UIP) -------------------------------- */
static int analyze(SolverCore *s, int conflict_index, int *out_size,
                   int *out_btlevel, int *out_lbd)
{
    int *learned = s->learned_buf;
    int learned_len = 1;
    learned[0] = 0;
    uint8_t *seen = s->seen;
    int counter = 0;
    int lit = 0;
    NClause *c = &s->clauses[conflict_index];
    int trail_index = s->trail_len - 1;
    int current_level = s->trail_lim_len;

    for (;;) {
        int *cl = c->lits;
        int size = c->size;
        for (int k = 0; k < size; k++) {
            int q = cl[k];
            if (lit != 0 && q == lit)
                continue;
            int v = litvar(q);
            if (seen[v] || s->level[v] == 0)
                continue;
            seen[v] = 1;
            if (bump_activity(s, v) < 0)
                return -1;
            if (s->level[v] == current_level)
                counter++;
            else
                learned[learned_len++] = q;
        }
        while (!seen[litvar(s->trail[trail_index])])
            trail_index--;
        lit = s->trail[trail_index];
        int v = litvar(lit);
        seen[v] = 0;
        trail_index--;
        counter--;
        if (counter == 0)
            break;
        c = &s->clauses[s->reason[v]];
    }
    learned[0] = -lit;
    for (int k = 1; k < learned_len; k++)
        seen[litvar(learned[k])] = 0;

    int btlevel;
    if (learned_len == 1) {
        btlevel = 0;
    } else {
        int best = 1;
        for (int p = 2; p < learned_len; p++) {
            if (s->level[litvar(learned[p])] > s->level[litvar(learned[best])])
                best = p;
        }
        int tmp = learned[1];
        learned[1] = learned[best];
        learned[best] = tmp;
        btlevel = s->level[litvar(learned[1])];
    }

    int lbd = 0;
    if (s->forget_limit > 0) {
        /* Distinct decision levels among the learned literals, measured
         * before backtracking — the classic LBD score. */
        if (reserve_level_marks(s, current_level + 2) < 0) {
            s->mem_error = 1;
            return -1;
        }
        s->level_stamp++;
        for (int k = 0; k < learned_len; k++) {
            int lvl = s->level[litvar(learned[k])];
            if (s->level_mark[lvl] != s->level_stamp) {
                s->level_mark[lvl] = s->level_stamp;
                lbd++;
            }
        }
    }

    *out_size = learned_len;
    *out_btlevel = btlevel;
    *out_lbd = lbd;
    return 0;
}

/* ---- backtracking -------------------------------------------------- */
static int backtrack(SolverCore *s, int target_level)
{
    if (s->trail_lim_len <= target_level)
        return 0;
    int boundary = s->trail_lim[target_level];
    for (int i = s->trail_len - 1; i >= boundary; i--) {
        int lit = s->trail[i];
        int v = litvar(lit);
        s->assign[v] = 0;
        s->reason[v] = -1;
        if (heap_push(s, -s->activity[v], v) < 0)
            return -1;
    }
    s->trail_len = boundary;
    s->trail_lim_len = target_level;
    s->queue_head = s->trail_len;
    return 0;
}

/* ---- learned-clause database management ---------------------------- */
static void rebuild_watches_and_reasons(SolverCore *s)
{
    size_t watch_count = 2 * ((size_t)s->cap_vars + 1);
    for (size_t i = 0; i < watch_count; i++)
        s->watches[i].len = 0;
    for (int index = 0; index < s->num_clauses; index++) {
        NClause *c = &s->clauses[index];
        if (c->size >= 2) {
            if (iv_push(&s->watches[widx(c->lits[0])], index) < 0 ||
                iv_push(&s->watches[widx(c->lits[1])], index) < 0) {
                s->mem_error = 1;
                return;
            }
        }
    }
    for (int v = 1; v <= s->num_vars; v++)
        s->reason[v] = -1;
}

/* Size-based policy — the historic default, byte-identical to the pure
 * solver's _reduce_learned: keep short learned clauses, drop the older
 * half of the long ones. */
static int reduce_learned(SolverCore *s)
{
    if (s->trail_lim_len != 0)
        return 0;
    if (s->num_learned < 2000)
        return 0;
    int num_long = 0;
    for (int i = 0; i < s->num_clauses; i++) {
        NClause *c = &s->clauses[i];
        if (c->learned && c->size > 4)
            num_long++;
    }
    int keep_count = (int)((double)num_long * 0.5);
    int drop_prefix = num_long - keep_count;

    NClause *kept = (NClause *)malloc((size_t)(s->num_clauses ? s->num_clauses : 1) * sizeof(NClause));
    NClause *tail = (NClause *)malloc((size_t)(num_long ? num_long : 1) * sizeof(NClause));
    if (kept == NULL || tail == NULL) {
        free(kept);
        free(tail);
        s->mem_error = 1;
        return -1;
    }
    int kept_len = 0, tail_len = 0, seen_long = 0;
    for (int i = 0; i < s->num_clauses; i++) {
        NClause *c = &s->clauses[i];
        if (!c->learned || c->size <= 4) {
            kept[kept_len++] = *c;
        } else {
            seen_long++;
            if (seen_long > drop_prefix)
                tail[tail_len++] = *c;
            else
                free(c->lits);
        }
    }
    int total = kept_len;
    memcpy(s->clauses, kept, (size_t)kept_len * sizeof(NClause));
    for (int i = 0; i < tail_len; i++)
        s->clauses[total + i] = tail[i];
    total += tail_len;
    s->num_clauses = total;
    free(kept);
    free(tail);
    int num_learned = 0;
    for (int i = 0; i < s->num_clauses; i++)
        if (s->clauses[i].learned)
            num_learned++;
    s->num_learned = num_learned;
    rebuild_watches_and_reasons(s);
    return s->mem_error ? -1 : 0;
}

/* LBD policy (clause_forget=): glue clauses (LBD <= 2) are permanent;
 * of the rest, the half with the highest LBD is forgotten (ties broken by
 * age — newer clauses survive).  Mirrors _reduce_learned_lbd exactly. */
static int reduce_learned_lbd(SolverCore *s)
{
    if (s->trail_lim_len != 0)
        return 0;
    if ((long long)s->num_learned < s->forget_limit)
        return 0;
    int candidates = 0;
    int max_lbd = 0;
    for (int i = 0; i < s->num_clauses; i++) {
        NClause *c = &s->clauses[i];
        if (c->learned && c->lbd > 2) {
            candidates++;
            if (c->lbd > max_lbd)
                max_lbd = c->lbd;
        }
    }
    if (candidates == 0) {
        s->forget_limit += s->forget_limit / 2;
        return 0;
    }
    long long keep_target = candidates / 2;
    long long *buckets = (long long *)calloc((size_t)max_lbd + 1, sizeof(long long));
    uint8_t *keep_flag = (uint8_t *)calloc((size_t)s->num_clauses, 1);
    if (buckets == NULL || keep_flag == NULL) {
        free(buckets);
        free(keep_flag);
        s->mem_error = 1;
        return -1;
    }
    for (int i = 0; i < s->num_clauses; i++) {
        NClause *c = &s->clauses[i];
        if (c->learned && c->lbd > 2)
            buckets[c->lbd]++;
    }
    int threshold = 3;
    long long acc = 0;
    while (threshold <= max_lbd && acc + buckets[threshold] <= keep_target) {
        acc += buckets[threshold];
        threshold++;
    }
    long long remaining = keep_target - acc;
    long long taken = 0;
    for (int i = s->num_clauses - 1; i >= 0 && taken < remaining; i--) {
        NClause *c = &s->clauses[i];
        if (c->learned && c->lbd == threshold) {
            keep_flag[i] = 1;
            taken++;
        }
    }
    int out = 0;
    for (int i = 0; i < s->num_clauses; i++) {
        NClause *c = &s->clauses[i];
        int keep = !c->learned || c->lbd <= 2 || c->lbd < threshold || keep_flag[i];
        if (keep) {
            s->clauses[out++] = *c;
        } else {
            s->forgotten_clauses++;
            free(c->lits);
        }
    }
    s->num_clauses = out;
    free(buckets);
    free(keep_flag);
    int num_learned = 0;
    for (int i = 0; i < s->num_clauses; i++)
        if (s->clauses[i].learned)
            num_learned++;
    s->num_learned = num_learned;
    rebuild_watches_and_reasons(s);
    s->forget_limit += s->forget_limit / 2;
    return s->mem_error ? -1 : 0;
}

/* ---- branching ----------------------------------------------------- */
static int pick_branch(SolverCore *s)
{
    if (s->heap_len > 64 + 4 * s->num_vars) {
        if (rebuild_heap(s) < 0)
            return -2;
    }
    while (s->heap_len > 0) {
        double key = s->heap[0].key;
        int v = s->heap[0].var;
        if (s->assign[v] != 0 || -key != s->activity[v]) {
            heap_pop_root(s);
            continue;
        }
        return v;
    }
    return 0;
}

/* ---- add_clause (level-0 simplification) --------------------------- */
/* Return codes: 0 ok, -1 memory error.  Mirrors the pure add_clause body
 * after its validation (the Python wrapper rejects literal 0 and handles
 * the trivially-unsat early return and problem-clause counting). */
static int core_add_clause(SolverCore *s, const int *lits, int n)
{
    if (backtrack(s, 0) < 0)
        return -1;
    if (n > 0) {
        int maxv = 0;
        for (int i = 0; i < n; i++) {
            int v = litvar(lits[i]);
            if (v > maxv)
                maxv = v;
        }
        if (core_reserve_vars(s, maxv) < 0)
            return -1;
    }
    int *cleaned = (int *)malloc((size_t)(n ? n : 1) * sizeof(int));
    if (cleaned == NULL)
        return -1;
    int cleaned_len = 0;
    int dropped = 0;
    for (int i = 0; i < n; i++) {
        int lit = lits[i];
        int v = litvar(lit);
        int sign = lit > 0 ? 1 : -1;
        if (s->mark[v] == -sign) { /* tautology */
            dropped = 1;
            break;
        }
        if (s->mark[v] == sign)
            continue;
        int value = litval(s, lit);
        if (value == 1) { /* satisfied at level 0 */
            dropped = 1;
            break;
        }
        if (value == -1)
            continue;
        s->mark[v] = sign;
        cleaned[cleaned_len++] = lit;
    }
    for (int i = 0; i < cleaned_len; i++)
        s->mark[litvar(cleaned[i])] = 0;
    if (dropped) {
        free(cleaned);
        return 0;
    }
    if (cleaned_len == 0) {
        free(cleaned);
        s->trivially_unsat = 1;
        return 0;
    }
    if (cleaned_len == 1) {
        int ok = enqueue(s, cleaned[0], -1);
        free(cleaned);
        if (!ok) {
            s->trivially_unsat = 1;
            return 0;
        }
        int conflict = propagate(s);
        if (conflict == -2)
            return -1;
        if (conflict >= 0)
            s->trivially_unsat = 1;
        return 0;
    }
    int index = attach_clause(s, cleaned, cleaned_len, 0, 0);
    free(cleaned);
    return index < 0 ? -1 : 0;
}

/* ---- solve --------------------------------------------------------- */
#define SOLVE_UNSAT 0
#define SOLVE_SAT 1
#define SOLVE_UNKNOWN 2
#define SOLVE_MEMERR (-1)

static int core_solve(SolverCore *s, const int *assumptions, int nassump,
                      long long max_conflicts, long long max_propagations,
                      double max_seconds)
{
    long long conflicts_base = s->conflicts;
    long long props_base = s->propagations;
    int has_budget = (max_conflicts >= 0 || max_propagations >= 0 || max_seconds > 0.0);
    double deadline = -1.0;
    if (max_seconds > 0.0)
        deadline = mono_now() + max_seconds;

    int max_assump_var = 0;
    for (int i = 0; i < nassump; i++) {
        int v = litvar(assumptions[i]);
        if (v > max_assump_var)
            max_assump_var = v;
    }
    if (core_reserve_vars(s, max_assump_var) < 0)
        return SOLVE_MEMERR;
    if (reserve_trail_lim(s, s->num_vars + nassump + 2) < 0)
        return SOLVE_MEMERR;
    if (backtrack(s, 0) < 0)
        return SOLVE_MEMERR;

    long long restart_limit = 100;
    long long conflicts_since_restart = 0;

    for (;;) {
        int conflict = propagate(s);
        if (conflict == -2)
            return SOLVE_MEMERR;
        if (conflict >= 0) {
            s->conflicts++;
            conflicts_since_restart++;
            if (s->trail_lim_len == 0) {
                s->trivially_unsat = 1;
                return SOLVE_UNSAT;
            }
            if (has_budget) {
                int exhausted =
                    (max_conflicts >= 0 &&
                     s->conflicts - conflicts_base >= max_conflicts) ||
                    (max_propagations >= 0 &&
                     s->propagations - props_base >= max_propagations) ||
                    (deadline > 0.0 && mono_now() >= deadline);
                if (exhausted) {
                    s->budget_exhaustions++;
                    if (backtrack(s, 0) < 0)
                        return SOLVE_MEMERR;
                    return SOLVE_UNKNOWN;
                }
            }
            int learned_size, btlevel, lbd;
            if (analyze(s, conflict, &learned_size, &btlevel, &lbd) < 0)
                return SOLVE_MEMERR;
            if (backtrack(s, btlevel) < 0)
                return SOLVE_MEMERR;
            if (learned_size == 1) {
                if (!enqueue(s, s->learned_buf[0], -1)) {
                    s->trivially_unsat = 1;
                    return SOLVE_UNSAT;
                }
            } else {
                int ci = attach_clause(s, s->learned_buf, learned_size, 1, lbd);
                if (ci < 0)
                    return SOLVE_MEMERR;
                enqueue(s, s->learned_buf[0], ci);
            }
            s->activity_increment /= 0.95;
            if (conflicts_since_restart >= restart_limit) {
                conflicts_since_restart = 0;
                s->restarts++;
                restart_limit = (long long)((double)restart_limit * 1.5);
                if (backtrack(s, 0) < 0)
                    return SOLVE_MEMERR;
                if (s->forget_limit > 0) {
                    if (reduce_learned_lbd(s) < 0)
                        return SOLVE_MEMERR;
                } else {
                    if (reduce_learned(s) < 0)
                        return SOLVE_MEMERR;
                }
            }
            continue;
        }

        if (s->trail_lim_len < nassump) {
            int lit = assumptions[s->trail_lim_len];
            int value = litval(s, lit);
            if (value == -1)
                return SOLVE_UNSAT;
            s->trail_lim[s->trail_lim_len++] = s->trail_len;
            if (value == 0)
                enqueue(s, lit, -1);
            continue;
        }

        int v = pick_branch(s);
        if (v == -2)
            return SOLVE_MEMERR;
        if (v == 0)
            return SOLVE_SAT;
        s->decisions++;
        s->trail_lim[s->trail_lim_len++] = s->trail_len;
        enqueue(s, s->phase[v] ? v : -v, -1);
    }
}

/* ------------------------------------------------------------------ */
/* SolverCore Python type                                              */
/* ------------------------------------------------------------------ */
static PyObject *SolverCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    SolverCore *self = (SolverCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->activity_increment = 1.0;
    return (PyObject *)self;
}

static int SolverCore_init(SolverCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"forget_limit", NULL};
    long long forget_limit = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|L", kwlist, &forget_limit))
        return -1;
    self->forget_limit = forget_limit > 0 ? forget_limit : 0;
    return 0;
}

static void SolverCore_dealloc(SolverCore *self)
{
    for (int i = 0; i < self->num_clauses; i++)
        free(self->clauses[i].lits);
    free(self->clauses);
    if (self->watches != NULL) {
        size_t watch_count = 2 * ((size_t)self->cap_vars + 1);
        for (size_t i = 0; i < watch_count; i++)
            free(self->watches[i].data);
        free(self->watches);
    }
    free(self->assign);
    free(self->level);
    free(self->reason);
    free(self->activity);
    free(self->phase);
    free(self->trail);
    free(self->trail_lim);
    free(self->heap);
    free(self->mark);
    free(self->seen);
    free(self->learned_buf);
    free(self->level_mark);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *SolverCore_reserve_vars(SolverCore *self, PyObject *arg)
{
    long num_vars = PyLong_AsLong(arg);
    if (num_vars == -1 && PyErr_Occurred())
        return NULL;
    if (num_vars > INT_MAX / 8) {
        PyErr_SetString(PyExc_OverflowError, "too many variables");
        return NULL;
    }
    if (core_reserve_vars(self, (int)num_vars) < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

static int *literals_from_sequence(PyObject *seq_obj, int *out_n)
{
    PyObject *seq = PySequence_Fast(seq_obj, "clause must be a sequence of literals");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    int *lits = (int *)malloc((size_t)(n ? n : 1) * sizeof(int));
    if (lits == NULL) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        long lit = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (lit == -1 && PyErr_Occurred()) {
            free(lits);
            Py_DECREF(seq);
            return NULL;
        }
        if (lit == 0 || lit > INT_MAX / 8 || lit < -(INT_MAX / 8)) {
            free(lits);
            Py_DECREF(seq);
            PyErr_SetString(PyExc_ValueError, "literal out of range");
            return NULL;
        }
        lits[i] = (int)lit;
    }
    Py_DECREF(seq);
    *out_n = (int)n;
    return lits;
}

static PyObject *SolverCore_add_clause(SolverCore *self, PyObject *arg)
{
    int n = 0;
    int *lits = literals_from_sequence(arg, &n);
    if (lits == NULL)
        return NULL;
    int rc = core_add_clause(self, lits, n);
    free(lits);
    if (rc < 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

static PyObject *SolverCore_solve(SolverCore *self, PyObject *args)
{
    PyObject *assumptions_obj;
    long long max_conflicts = -1;
    long long max_propagations = -1;
    double max_seconds = -1.0;
    if (!PyArg_ParseTuple(args, "O|LLd", &assumptions_obj, &max_conflicts,
                          &max_propagations, &max_seconds))
        return NULL;
    int nassump = 0;
    int *assumptions = literals_from_sequence(assumptions_obj, &nassump);
    if (assumptions == NULL)
        return NULL;

    int status;
    Py_BEGIN_ALLOW_THREADS
    status = core_solve(self, assumptions, nassump, max_conflicts,
                        max_propagations, max_seconds);
    Py_END_ALLOW_THREADS
    free(assumptions);

    if (status == SOLVE_MEMERR || self->mem_error) {
        self->mem_error = 0;
        return PyErr_NoMemory();
    }

    PyObject *model = Py_None;
    Py_INCREF(Py_None);
    if (status == SOLVE_SAT) {
        Py_DECREF(Py_None);
        model = PyDict_New();
        if (model == NULL)
            return NULL;
        for (int v = 1; v <= self->num_vars; v++) {
            if (self->assign[v] == 0)
                continue;
            PyObject *key = PyLong_FromLong(v);
            PyObject *value = PyBool_FromLong(self->assign[v] == 1);
            if (key == NULL || value == NULL ||
                PyDict_SetItem(model, key, value) < 0) {
                Py_XDECREF(key);
                Py_XDECREF(value);
                Py_DECREF(model);
                return NULL;
            }
            Py_DECREF(key);
            Py_DECREF(value);
        }
    }
    PyObject *result = Py_BuildValue("iN", status, model);
    return result;
}

#define LL_GETTER(name, field)                                        \
    static PyObject *SolverCore_get_##name(SolverCore *self, void *c) \
    {                                                                 \
        (void)c;                                                      \
        return PyLong_FromLongLong(self->field);                      \
    }

LL_GETTER(conflicts, conflicts)
LL_GETTER(decisions, decisions)
LL_GETTER(propagations, propagations)
LL_GETTER(restarts, restarts)
LL_GETTER(budget_exhaustions, budget_exhaustions)
LL_GETTER(forgotten_clauses, forgotten_clauses)
LL_GETTER(num_learned, num_learned)
LL_GETTER(num_vars, num_vars)
LL_GETTER(num_clauses, num_clauses)
#undef LL_GETTER

static PyObject *SolverCore_get_trivially_unsat(SolverCore *self, void *c)
{
    (void)c;
    return PyBool_FromLong(self->trivially_unsat);
}

static PyGetSetDef SolverCore_getset[] = {
    {"conflicts", (getter)SolverCore_get_conflicts, NULL, NULL, NULL},
    {"decisions", (getter)SolverCore_get_decisions, NULL, NULL, NULL},
    {"propagations", (getter)SolverCore_get_propagations, NULL, NULL, NULL},
    {"restarts", (getter)SolverCore_get_restarts, NULL, NULL, NULL},
    {"budget_exhaustions", (getter)SolverCore_get_budget_exhaustions, NULL, NULL, NULL},
    {"forgotten_clauses", (getter)SolverCore_get_forgotten_clauses, NULL, NULL, NULL},
    {"num_learned", (getter)SolverCore_get_num_learned, NULL, NULL, NULL},
    {"num_vars", (getter)SolverCore_get_num_vars, NULL, NULL, NULL},
    {"num_clauses", (getter)SolverCore_get_num_clauses, NULL, NULL, NULL},
    {"trivially_unsat", (getter)SolverCore_get_trivially_unsat, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMethodDef SolverCore_methods[] = {
    {"reserve_vars", (PyCFunction)SolverCore_reserve_vars, METH_O,
     "Grow the variable range to num_vars."},
    {"add_clause", (PyCFunction)SolverCore_add_clause, METH_O,
     "Add a clause (sequence of non-zero integer literals)."},
    {"solve", (PyCFunction)SolverCore_solve, METH_VARARGS,
     "solve(assumptions, max_conflicts=-1, max_propagations=-1, max_seconds=-1)"
     " -> (status, model) with status 0=unsat, 1=sat, 2=unknown."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SolverCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._core.SolverCore",
    .tp_basicsize = sizeof(SolverCore),
    .tp_dealloc = (destructor)SolverCore_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled CDCL inner core (transcript-identical to the pure solver).",
    .tp_methods = SolverCore_methods,
    .tp_getset = SolverCore_getset,
    .tp_init = (initproc)SolverCore_init,
    .tp_new = SolverCore_new,
};

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */
static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native._core",
    "Compiled CDCL solver core (optional twin of the pure backend).",
    -1,
    NULL,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__core(void)
{
    if (PyType_Ready(&SolverCoreType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&core_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&SolverCoreType);
    if (PyModule_AddObject(module, "SolverCore", (PyObject *)&SolverCoreType) < 0) {
        Py_DECREF(&SolverCoreType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddStringConstant(module, "BACKEND_ABI", "1") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
