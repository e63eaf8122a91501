"""C source for the packed-word cache walk (the ``c`` engine's second
half).

This module holds only the cdef/source strings for the fused
L1 probe → miss walk → LLC fill/evict → monitor chain;
:mod:`repro.engine.c_backend` compiles them into the shared extension
(one translation unit with the Auto-Cuckoo kernel, so the inline
monitor path calls ``acf_access`` directly), and
:mod:`repro.engine.c_cache` owns install/eligibility/sync.  Keeping
the strings in a leaf module with no repro imports lets c_backend hash
them into the build-cache tag without import cycles.

The C code is an exact-uint64 port of ``CacheHierarchy.access`` and
the helpers it fuses (``_write_hit``, ``_mark_written``,
``_serve_llc_hit``, ``_flush_core_line``, ``_invalidate_other_sharers``,
``_scrub_core_copies``, ``_set_core_state``, ``_fill_private``,
``_fill_l1``, ``_fetch_into_llc``, ``_handle_llc_eviction``,
``clflush``, ``prefetch_fill``) — same packed-word bit layout
(``cache/line.py``), same statistics ordering, same flat-DRAM channel
arithmetic, and the same Mersenne-Twister ``_randbelow`` draw sequence
for ``lru_rand`` victims.  Storage is C-owned: per-cache flat
tag/word/stamp arrays (admissible because every supported policy's
victim choice depends only on stamps, which are unique per cache, so
dict iteration order is unobservable), plus one open-addressed u64 map
for ``_memory_versions``.  Monitor side effects that live in Python
(alarm publication, captured-line tracking, the pEvict/prefetch tail)
come back through ``extern "Python"`` callbacks.

``cw_run`` is the multicore scheduler loop of
``MulticoreSystem.run`` over packed record chunks: it interleaves the
cores in (time, core id) order and calls ``cw_access`` directly,
returning to Python only for a new chunk, a due event, or after a
callback (see ``CWalkState.run_cores`` in :mod:`repro.engine.c_cache`).
``cw_emit_fill`` fills those chunks for the synthetic workloads, in
exact ``random.Random`` lockstep with their Python emitter (see
:mod:`repro.engine.c_emit`).

Error protocol: walk entry points return a negative latency (or the
prefetch helper -1) after setting ``err``/``err_addr``/``err_cache``
on the state; the Python wrappers re-raise the exact exception the
generic engine would have raised (duplicate insert, inclusion
violations, or a stored callback exception).
"""

# Cache array layout inside ``cw_hier.caches``:
#   l1d[0..C) | l1i[C..2C) | l2[2C..3C) | llc slices[3C..3C+S)
# Entry addressing within one cw_cache: slot = (line & set_mask)*ways + way,
# with CW_EMPTY (all-ones) tagging a free way.

#: The synthetic emitter's state (``cw_emit_fill``), declared once for
#: both the cdef and the source.
_EMIT_STRUCT = """
typedef struct {
    cw_mt rng;
    int picker;
    int64_t gap_base;
    double gap_frac;
    double ifetch_limit;
    double conflict_limit;
    double write_fraction;
    double hot_probability;
    uint32_t num_lines;
    uint32_t hot_lines;
    int64_t side;
    uint64_t data_base;
    uint64_t code_base;
    uint64_t code_lines;
    uint64_t conflict_base;
    uint64_t conflict_stride;
    uint64_t conflict_lines;
    uint64_t visits_per_line;
    const uint32_t *chain;
    uint64_t code_line;
    uint64_t conflict_index;
    uint64_t visits_left;
    int64_t current_line;
    uint64_t position;
    int64_t si;
    int64_t sj;
    int64_t sk;
} cw_emit;
"""

WALK_CDEF = """
typedef struct {
    uint64_t *tags;
    uint64_t *words;
    uint64_t *stamps;
    uint16_t *counts;
    uint64_t stamp;
    uint64_t hits;
    uint64_t misses;
    uint64_t evictions;
    uint64_t set_mask;
    uint32_t ways;
} cw_cache;

typedef struct {
    uint32_t mt[624];
    uint32_t mti;
} cw_mt;

typedef struct {
    uint64_t *keys;
    uint64_t *vals;
    uint64_t cap;
    uint64_t count;
} cw_map;

typedef struct {
    cw_cache *caches;
    int num_cores;
    int num_slices;
    int line_bits;
    int64_t l1_lat;
    int64_t l2_lat;
    int64_t llc_lat;
    int64_t dfp;
    int llc_set_bits;
    int llc_slice_shift;
    int llc_touch;
    int llc_victim_rand;
    int pool_size;
    cw_mt *rng;
    uint64_t write_counter;
    int64_t channel_free_at;
    int64_t burst_cycles;
    int64_t dram_latency;
    uint64_t total_queue_wait;
    uint64_t demand_fetches;
    uint64_t prefetch_fetches;
    uint64_t writebacks;
    cw_map memver;
    uint64_t s_writes;
    uint64_t s_ifetches;
    uint64_t s_l1_hits;
    uint64_t s_l1_misses;
    uint64_t s_l2_hits;
    uint64_t s_l2_misses;
    uint64_t s_llc_hits;
    uint64_t s_llc_misses;
    uint64_t s_llc_evictions;
    uint64_t s_l2_evictions;
    uint64_t s_back_invalidations;
    uint64_t s_writebacks_to_memory;
    uint64_t s_upgrades;
    uint64_t s_dirty_forwards;
    uint64_t s_prefetch_fills;
    uint64_t s_prefetch_skipped;
    uint64_t s_flushes;
    uint64_t s_flush_hits;
    uint64_t s_flush_writebacks;
    uint64_t s_flush_back_invalidations;
    uint64_t s_total_latency;
    uint64_t *per_core;
    int mon_kind;
    int needs_all;
    int capture_cb;
    uint32_t thresh;
    acf_state *acf;
    uint64_t m_accesses;
    uint64_t m_captures;
    void *ctx;
    int err;
    int err_cache;
    uint64_t err_addr;
    int cb_fired;
} cw_hier;

typedef struct {
    const int64_t *recs;
    int64_t n;
    int64_t pos;
    int64_t time;
    int64_t instructions;
    int64_t memory_ops;
    int64_t last_latency;
    int64_t pending_addr;
    int32_t pending_op;
    int32_t active;
} cw_core;

int64_t cw_access(cw_hier *h, int core, int op, uint64_t addr, int64_t now);
int64_t cw_clflush(cw_hier *h, int core, uint64_t addr, int64_t now);
int cw_prefetch_fill(cw_hier *h, uint64_t line_addr, int64_t now, int tag);
int64_t cw_access_many(cw_hier *h, const int32_t *cores, const int32_t *ops,
                       const uint64_t *addrs, int64_t n, int64_t now,
                       int64_t *lat_out);
int cw_run(cw_hier *h, cw_core *cores, int n, int64_t budget,
           int has_event, int64_t event_time, int *which);
int cw_map_put(cw_hier *h, uint64_t key, uint64_t val);
void cw_map_items(cw_hier *h, uint64_t *keys_out, uint64_t *vals_out);
void cw_hier_free(cw_hier *h);

""" + _EMIT_STRUCT + """
int cw_emit_chain(cw_mt *r, uint32_t *chain, uint32_t n);
void cw_emit_fill(cw_emit *e, int64_t *out, int64_t n);

extern "Python" int cw_cb_access(void *ctx, uint64_t line_addr, int64_t now);
extern "Python" int cw_cb_capture(void *ctx, uint64_t line_addr, int64_t now);
extern "Python" int cw_cb_evict(void *ctx, uint64_t vaddr, uint64_t vword,
                                uint64_t vstamp, int64_t now,
                                uint64_t *vword_out);
"""

WALK_SOURCE = """
#include <stdlib.h>
#include <string.h>

#define CW_EMPTY 0xFFFFFFFFFFFFFFFFULL

/* Packed-word bit layout (cache/line.py): DIRTY=1, PINGPONG=2,
 * ACCESSED=4, state at bits 3..4, sharers at bits 5..20, version from
 * bit 21.  Masks below mirror hierarchy.py's aliases exactly. */
#define CW_VB        0x1FFFFFULL   /* VERSION_BELOW */
#define CW_KEEPFLUSH 0x1FFFE6ULL   /* (VB ^ DIRTY) & ~STATE_MASK */
#define CW_VBNSF     0x1EULL       /* VB & ~sharers_field & ~DIRTY */
#define CW_SMASK     0xFFFFULL
#define CW_SMULT     0x9E3779B97F4A7C15ULL

typedef struct {
    uint64_t *tags;
    uint64_t *words;
    uint64_t *stamps;
    uint16_t *counts;
    uint64_t stamp;
    uint64_t hits;
    uint64_t misses;
    uint64_t evictions;
    uint64_t set_mask;
    uint32_t ways;
} cw_cache;

typedef struct {
    uint32_t mt[624];
    uint32_t mti;
} cw_mt;

typedef struct {
    uint64_t *keys;
    uint64_t *vals;
    uint64_t cap;
    uint64_t count;
} cw_map;

typedef struct {
    cw_cache *caches;
    int num_cores;
    int num_slices;
    int line_bits;
    int64_t l1_lat;
    int64_t l2_lat;
    int64_t llc_lat;
    int64_t dfp;
    int llc_set_bits;
    int llc_slice_shift;
    int llc_touch;
    int llc_victim_rand;
    int pool_size;
    cw_mt *rng;
    uint64_t write_counter;
    int64_t channel_free_at;
    int64_t burst_cycles;
    int64_t dram_latency;
    uint64_t total_queue_wait;
    uint64_t demand_fetches;
    uint64_t prefetch_fetches;
    uint64_t writebacks;
    cw_map memver;
    uint64_t s_writes;
    uint64_t s_ifetches;
    uint64_t s_l1_hits;
    uint64_t s_l1_misses;
    uint64_t s_l2_hits;
    uint64_t s_l2_misses;
    uint64_t s_llc_hits;
    uint64_t s_llc_misses;
    uint64_t s_llc_evictions;
    uint64_t s_l2_evictions;
    uint64_t s_back_invalidations;
    uint64_t s_writebacks_to_memory;
    uint64_t s_upgrades;
    uint64_t s_dirty_forwards;
    uint64_t s_prefetch_fills;
    uint64_t s_prefetch_skipped;
    uint64_t s_flushes;
    uint64_t s_flush_hits;
    uint64_t s_flush_writebacks;
    uint64_t s_flush_back_invalidations;
    uint64_t s_total_latency;
    uint64_t *per_core;
    int mon_kind;
    int needs_all;
    int capture_cb;
    uint32_t thresh;
    acf_state *acf;
    uint64_t m_accesses;
    uint64_t m_captures;
    void *ctx;
    int err;
    int err_cache;
    uint64_t err_addr;
    int cb_fired;
} cw_hier;

typedef struct {
    const int64_t *recs;
    int64_t n;
    int64_t pos;
    int64_t time;
    int64_t instructions;
    int64_t memory_ops;
    int64_t last_latency;
    int64_t pending_addr;
    int32_t pending_op;
    int32_t active;
} cw_core;

static int cw_cb_access(void *ctx, uint64_t line_addr, int64_t now);
static int cw_cb_capture(void *ctx, uint64_t line_addr, int64_t now);
static int cw_cb_evict(void *ctx, uint64_t vaddr, uint64_t vword,
                       uint64_t vstamp, int64_t now, uint64_t *vword_out);

/* Error codes stored in cw_hier.err (Python re-raises). */
#define CW_ERR_DUP       1   /* duplicate insert (ValueError) */
#define CW_ERR_INCL_L2   2   /* L2 victim absent from LLC */
#define CW_ERR_INCL_UPG  3   /* upgrade on line absent from LLC */
#define CW_ERR_OOM       4   /* memver map allocation failure */
#define CW_ERR_LOST_PF   5   /* prefetched line vanished mid-fill */
#define CW_ERR_CALLBACK  100 /* Python callback raised */

/* ------------------------------------------------------------------ */
/* Open-addressed u64 -> u64 map (_memory_versions).  C-owned (it must
 * grow unboundedly over a run); absent keys read as 0, matching the
 * Python dict's .get(line, 0). */

static uint64_t cw_map_hash(uint64_t k)
{
    k ^= k >> 30; k *= 0xBF58476D1CE4E5B9ULL;
    k ^= k >> 27; k *= 0x94D049BB133111EBULL;
    return k ^ (k >> 31);
}

static uint64_t cw_map_get(const cw_map *m, uint64_t key)
{
    uint64_t mask, i;
    if (!m->cap)
        return 0;
    mask = m->cap - 1;
    i = cw_map_hash(key) & mask;
    for (;;) {
        uint64_t k = m->keys[i];
        if (k == key)
            return m->vals[i];
        if (k == CW_EMPTY)
            return 0;
        i = (i + 1) & mask;
    }
}

static int cw_map_set(cw_map *m, uint64_t key, uint64_t val)
{
    uint64_t mask, i;
    if ((m->count + 1) * 10 >= m->cap * 7) {
        uint64_t ncap = m->cap ? m->cap * 2 : 1024;
        uint64_t nmask = ncap - 1, j;
        uint64_t *nk = (uint64_t *)malloc(ncap * sizeof(uint64_t));
        uint64_t *nv = (uint64_t *)malloc(ncap * sizeof(uint64_t));
        if (!nk || !nv) {
            free(nk);
            free(nv);
            return -1;
        }
        memset(nk, 0xFF, ncap * sizeof(uint64_t));
        for (j = 0; j < m->cap; j++) {
            uint64_t k = m->keys[j];
            if (k == CW_EMPTY)
                continue;
            i = cw_map_hash(k) & nmask;
            while (nk[i] != CW_EMPTY)
                i = (i + 1) & nmask;
            nk[i] = k;
            nv[i] = m->vals[j];
        }
        free(m->keys);
        free(m->vals);
        m->keys = nk;
        m->vals = nv;
        m->cap = ncap;
    }
    mask = m->cap - 1;
    i = cw_map_hash(key) & mask;
    for (;;) {
        uint64_t k = m->keys[i];
        if (k == key) {
            m->vals[i] = val;
            return 0;
        }
        if (k == CW_EMPTY) {
            m->keys[i] = key;
            m->vals[i] = val;
            m->count++;
            return 0;
        }
        i = (i + 1) & mask;
    }
}

int cw_map_put(cw_hier *h, uint64_t key, uint64_t val)
{
    return cw_map_set(&h->memver, key, val);
}

void cw_map_items(cw_hier *h, uint64_t *keys_out, uint64_t *vals_out)
{
    uint64_t i, n = 0;
    for (i = 0; i < h->memver.cap; i++) {
        if (h->memver.keys[i] == CW_EMPTY)
            continue;
        keys_out[n] = h->memver.keys[i];
        vals_out[n] = h->memver.vals[i];
        n++;
    }
}

void cw_hier_free(cw_hier *h)
{
    free(h->memver.keys);
    free(h->memver.vals);
    h->memver.keys = NULL;
    h->memver.vals = NULL;
    h->memver.cap = 0;
    h->memver.count = 0;
}

/* ------------------------------------------------------------------ */
/* Mersenne Twister (CPython's random.getrandbits(k <= 32) is
 * genrand_uint32() >> (32-k)); state is imported/exported through
 * Random.getstate()/setstate() on install/sync. */

static uint32_t cw_genrand(cw_mt *r)
{
    uint32_t y;
    if (r->mti >= 624) {
        int kk;
        for (kk = 0; kk < 624 - 397; kk++) {
            y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7FFFFFFFU);
            r->mt[kk] = r->mt[kk + 397] ^ (y >> 1)
                ^ ((y & 1U) ? 0x9908B0DFU : 0U);
        }
        for (; kk < 623; kk++) {
            y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7FFFFFFFU);
            r->mt[kk] = r->mt[kk + (397 - 624)] ^ (y >> 1)
                ^ ((y & 1U) ? 0x9908B0DFU : 0U);
        }
        y = (r->mt[623] & 0x80000000U) | (r->mt[0] & 0x7FFFFFFFU);
        r->mt[623] = r->mt[396] ^ (y >> 1) ^ ((y & 1U) ? 0x9908B0DFU : 0U);
        r->mti = 0;
    }
    y = r->mt[r->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9D2C5680U;
    y ^= (y << 15) & 0xEFC60000U;
    y ^= (y >> 18);
    return y;
}

/* Random._randbelow_with_getrandbits(n) for 1 <= n < 2**32: draw
 * getrandbits(n.bit_length()), redraw while >= n. */
static uint32_t cw_randbelow(cw_mt *r, uint32_t n)
{
    uint32_t shift = 32, v;
    for (v = n; v; v >>= 1)
        shift--;
    v = cw_genrand(r) >> shift;
    while (v >= n)
        v = cw_genrand(r) >> shift;
    return v;
}

/* Random.random() (CPython's genrand_res53). */
static double cw_random(cw_mt *r)
{
    uint32_t a = cw_genrand(r) >> 5, b = cw_genrand(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------------ */
/* Cache-array primitives. */

static int64_t cw_slot(const cw_cache *c, uint64_t line_addr)
{
    uint64_t base = (line_addr & c->set_mask) * c->ways;
    const uint64_t *tags = c->tags + base;
    uint32_t i;
    for (i = 0; i < c->ways; i++)
        if (tags[i] == line_addr)
            return (int64_t)(base + i);
    return -1;
}

static void cw_del(cw_cache *c, int64_t slot, uint64_t line_addr)
{
    c->tags[slot] = CW_EMPTY;
    c->counts[line_addr & c->set_mask]--;
}

static int cw_slice_idx(const cw_hier *h, uint64_t line_addr)
{
    if (h->num_slices == 1)
        return 0;
    return (int)(((line_addr >> h->llc_set_bits) * CW_SMULT)
                 >> h->llc_slice_shift);
}

/* _fill for the private (LRU: stamp-on-insert, min-stamp victim)
 * caches.  Returns 1 with the victim in *v_addr / *v_word, 0 when the
 * set had space, -1 on duplicate insert. */
static int cw_fill_small(cw_hier *h, cw_cache *c, int cidx,
                         uint64_t line_addr, uint64_t word,
                         uint64_t *v_addr, uint64_t *v_word)
{
    uint64_t set = line_addr & c->set_mask;
    uint64_t base = set * c->ways;
    uint64_t *tags = c->tags + base;
    uint32_t i;
    int have = 0;
    for (i = 0; i < c->ways; i++) {
        if (tags[i] == line_addr) {
            h->err = CW_ERR_DUP;
            h->err_addr = line_addr;
            h->err_cache = cidx;
            return -1;
        }
    }
    if (c->counts[set] >= c->ways) {
        int bi = -1;
        uint64_t bs = 0;
        for (i = 0; i < c->ways; i++) {
            if (tags[i] == CW_EMPTY)
                continue;
            if (bi < 0 || c->stamps[base + i] < bs) {
                bs = c->stamps[base + i];
                bi = (int)i;
            }
        }
        *v_addr = tags[bi];
        *v_word = c->words[base + bi];
        tags[bi] = CW_EMPTY;
        c->counts[set]--;
        c->evictions++;
        have = 1;
    }
    c->stamp++;
    for (i = 0; i < c->ways; i++) {
        if (tags[i] == CW_EMPTY) {
            tags[i] = line_addr;
            c->words[base + i] = word;
            c->stamps[base + i] = c->stamp;
            break;
        }
    }
    c->counts[set]++;
    return have;
}

/* LLC victim: min-stamp, or the lru_rand pool draw (pool_size
 * smallest stamps in ascending order — stamps are unique per cache,
 * so repeated min-extraction reproduces Python's stable sort — then
 * the exact _randbelow_with_getrandbits redraw loop). */
static uint64_t cw_llc_victim(cw_hier *h, cw_cache *sl, int si, uint64_t set)
{
    uint64_t base = set * sl->ways;
    const uint64_t *tags = sl->tags + base;
    const uint64_t *stamps = sl->stamps + base;
    uint32_t i;
    if (!h->llc_victim_rand) {
        int bi = -1;
        uint64_t bs = 0;
        for (i = 0; i < sl->ways; i++) {
            if (tags[i] == CW_EMPTY)
                continue;
            if (bi < 0 || stamps[i] < bs) {
                bs = stamps[i];
                bi = (int)i;
            }
        }
        return tags[bi];
    }
    {
        uint64_t pool_addr[64];
        uint64_t used = 0;
        int p, n = h->pool_size;
        for (p = 0; p < n; p++) {
            int bi = -1;
            uint64_t bs = 0;
            for (i = 0; i < sl->ways; i++) {
                if (tags[i] == CW_EMPTY || ((used >> i) & 1))
                    continue;
                if (bi < 0 || stamps[i] < bs) {
                    bs = stamps[i];
                    bi = (int)i;
                }
            }
            pool_addr[p] = tags[bi];
            used |= 1ULL << bi;
        }
        return pool_addr[cw_randbelow(&h->rng[si], (uint32_t)n)];
    }
}

/* ------------------------------------------------------------------ */
/* Coherence helpers (exact ports of the hierarchy methods). */

/* _scrub_core_copies: drop the line from core's three private levels;
 * returns the dirty flag with the max dirty version in *vout (only
 * meaningful when dirty). */
static int cw_scrub(cw_hier *h, int core, uint64_t line_addr, uint64_t *vout)
{
    int dirty = 0, i;
    uint64_t version = 0;
    for (i = 0; i < 3; i++) {
        cw_cache *c = &h->caches[i * h->num_cores + core];
        int64_t s = cw_slot(c, line_addr);
        uint64_t w;
        if (s < 0)
            continue;
        w = c->words[s];
        cw_del(c, s, line_addr);
        if (w & 1) {
            uint64_t v = w >> 21;
            if (!dirty || v > version)
                version = v;
            dirty = 1;
        }
    }
    *vout = version;
    return dirty;
}

static void cw_set_state(cw_hier *h, int core, uint64_t line_addr,
                         uint64_t state)
{
    uint64_t bits = state << 3;
    int i;
    for (i = 0; i < 3; i++) {
        cw_cache *c = &h->caches[i * h->num_cores + core];
        int64_t s = cw_slot(c, line_addr);
        if (s >= 0)
            c->words[s] = (c->words[s] & ~0x18ULL) | bits;
    }
}

static void cw_mark_written(cw_hier *h, int core, int op, uint64_t line_addr)
{
    cw_cache *m = &h->caches[(op == 2 ? h->num_cores : 0) + core];
    int64_t s;
    h->write_counter++;
    s = cw_slot(m, line_addr);
    if (s >= 0)
        m->words[s] = (m->words[s] & CW_VB) | (h->write_counter << 21) | 1ULL;
}

/* _flush_core_line: demote core's copies to SHARED, merging dirty
 * data into the LLC word; returns 1 when dirty data was forwarded. */
static int cw_flush_core_line(cw_hier *h, int core, uint64_t line_addr,
                              cw_cache *sl, int64_t ls)
{
    uint64_t lw = sl->words[ls];
    uint64_t newest = lw >> 21;
    int forwarded = 0, i, nh = 0;
    cw_cache *hc[3];
    int64_t hs[3];
    for (i = 0; i < 3; i++) {
        cw_cache *c = &h->caches[i * h->num_cores + core];
        int64_t s = cw_slot(c, line_addr);
        uint64_t w;
        if (s < 0)
            continue;
        hc[nh] = c;
        hs[nh] = s;
        nh++;
        w = c->words[s];
        if (w & 1) {
            uint64_t v = w >> 21;
            if (v > newest)
                newest = v;
            lw |= 1ULL;
            forwarded = 1;
        }
    }
    sl->words[ls] = (lw & CW_VB) | (newest << 21);
    for (i = 0; i < nh; i++)
        hc[i]->words[hs[i]] = (hc[i]->words[hs[i]] & CW_KEEPFLUSH)
            | (1ULL << 3) | (newest << 21);
    return forwarded;
}

static void cw_inval_other(cw_hier *h, int core, uint64_t line_addr,
                           cw_cache *sl, int64_t ls)
{
    uint64_t lw = sl->words[ls];
    uint64_t sharers = (lw >> 5) & CW_SMASK;
    uint64_t version = lw >> 21;
    uint64_t dirty = lw & 1;
    uint64_t rest = sharers & ~(1ULL << core);
    int other;
    for (other = 0; other < h->num_cores; other++) {
        uint64_t v;
        if (!((rest >> other) & 1))
            continue;
        if (cw_scrub(h, other, line_addr, &v)) {
            dirty = 1;
            if (v > version)
                version = v;
        }
    }
    sl->words[ls] = (lw & CW_VBNSF) | dirty
        | ((sharers & (1ULL << core)) << 5) | (version << 21);
}

/* _write_hit: returns extra latency, or -1 with err set. */
static int64_t cw_write_hit(cw_hier *h, int core, uint64_t line_addr,
                            uint64_t state)
{
    int64_t extra = 0;
    if (state == 1) {  /* SHARED -> MODIFIED upgrade */
        cw_cache *sl;
        int64_t ls;
        uint64_t lw;
        extra = h->llc_lat;
        h->s_upgrades++;
        sl = &h->caches[3 * h->num_cores + cw_slice_idx(h, line_addr)];
        ls = cw_slot(sl, line_addr);
        if (ls < 0) {
            h->err = CW_ERR_INCL_UPG;
            h->err_addr = line_addr;
            return -1;
        }
        cw_inval_other(h, core, line_addr, sl, ls);
        lw = sl->words[ls];
        if (lw & 2)
            sl->words[ls] = lw | 4;
    }
    cw_set_state(h, core, line_addr, 3);
    return extra;
}

/* _fill_l1 (L2-hit path): fill one L1, victim writeback into L2. */
static int cw_fill_l1(cw_hier *h, int core, cw_cache *l1, int l1_idx,
                      uint64_t line_addr, uint64_t state, uint64_t version)
{
    uint64_t vaddr, vword;
    int r = cw_fill_small(h, l1, l1_idx, line_addr,
                          (version << 21) | (state << 3), &vaddr, &vword);
    if (r < 0)
        return -1;
    if (r && (vword & 1)) {
        cw_cache *l2 = &h->caches[2 * h->num_cores + core];
        int64_t s = cw_slot(l2, vaddr);
        if (s >= 0) {
            uint64_t w = l2->words[s];
            uint64_t v = vword >> 21;
            if (v > (w >> 21))
                w = (w & CW_VB) | (v << 21);
            l2->words[s] = w | 1ULL;
        }
    }
    return 0;
}

/* _fill_private: fill L2 + L1 from the LLC word, handling inclusion
 * victims, then set the core's directory presence bit. */
static int cw_fill_private(cw_hier *h, int core, int op, uint64_t line_addr,
                           uint64_t state, cw_cache *sl, int64_t lslot)
{
    uint64_t llc_word = sl->words[lslot];
    uint64_t base_word = ((llc_word >> 21) << 21) | (state << 3);
    int l2_idx = 2 * h->num_cores + core;
    cw_cache *l2 = &h->caches[l2_idx];
    uint64_t vaddr, vword;
    int r = cw_fill_small(h, l2, l2_idx, line_addr, base_word,
                          &vaddr, &vword);
    int l1_idx;
    cw_cache *l1;
    if (r < 0)
        return -1;
    if (r) {
        /* L2 inclusion victim: purge L1 copies, write back into the
         * LLC word, release the directory presence bit. */
        uint64_t dirty = vword & 1;
        uint64_t version = vword >> 21;
        cw_cache *vsl;
        int64_t vs;
        uint64_t lw;
        int i;
        h->s_l2_evictions++;
        for (i = 0; i < 2; i++) {
            cw_cache *l1c = &h->caches[i * h->num_cores + core];
            int64_t s = cw_slot(l1c, vaddr);
            if (s >= 0) {
                uint64_t w = l1c->words[s];
                cw_del(l1c, s, vaddr);
                if (w & 1) {
                    uint64_t v = w >> 21;
                    if (v > version)
                        version = v;
                    dirty = 1;
                }
            }
        }
        vsl = &h->caches[3 * h->num_cores + cw_slice_idx(h, vaddr)];
        vs = cw_slot(vsl, vaddr);
        if (vs < 0) {
            h->err = CW_ERR_INCL_L2;
            h->err_addr = vaddr;
            return -1;
        }
        lw = vsl->words[vs];
        if (dirty) {
            if (version > (lw >> 21))
                lw = (lw & CW_VB) | (version << 21);
            lw |= 1ULL;
        }
        vsl->words[vs] = lw & ~(1ULL << (core + 5));
    }
    l1_idx = (op == 2 ? h->num_cores : 0) + core;
    l1 = &h->caches[l1_idx];
    r = cw_fill_small(h, l1, l1_idx, line_addr, base_word, &vaddr, &vword);
    if (r < 0)
        return -1;
    if (r && (vword & 1)) {
        int64_t s = cw_slot(l2, vaddr);
        if (s >= 0) {
            uint64_t w = l2->words[s];
            uint64_t v = vword >> 21;
            if (v > (w >> 21))
                w = (w & CW_VB) | (v << 21);
            l2->words[s] = w | 1ULL;
        }
    }
    /* llc_word is still current: the eviction handling above only
     * rewrites other addresses' words (and lslot cannot move — slices
     * are only touched word-in-place here). */
    sl->words[lslot] = llc_word | (1ULL << (core + 5));
    return 0;
}

/* _handle_llc_eviction. */
static int cw_handle_llc_evict(cw_hier *h, uint64_t vaddr, uint64_t vword,
                               uint64_t vstamp, int64_t now)
{
    uint64_t sharers;
    h->s_llc_evictions++;
    if (h->mon_kind && ((vword & 2) || h->needs_all)) {
        uint64_t out;
        h->cb_fired = 1;
        if (cw_cb_evict(h->ctx, vaddr, vword, vstamp, now, &out) != 0) {
            h->err = CW_ERR_CALLBACK;
            return -1;
        }
        vword = out;
    }
    sharers = (vword >> 5) & CW_SMASK;
    if (sharers) {
        uint64_t dirty = vword & 1;
        uint64_t version = vword >> 21;
        int core;
        for (core = 0; core < h->num_cores; core++) {
            uint64_t v;
            if (!((sharers >> core) & 1))
                continue;
            h->s_back_invalidations++;
            if (cw_scrub(h, core, vaddr, &v)) {
                dirty = 1;
                if (v > version)
                    version = v;
            }
        }
        vword = (vword & CW_VBNSF) | dirty | (version << 21);
    }
    if (vword & 1) {
        int64_t start = now > h->channel_free_at ? now : h->channel_free_at;
        h->total_queue_wait += (uint64_t)(start - now);
        h->channel_free_at = start + h->burst_cycles;
        h->writebacks++;
        if (cw_map_set(&h->memver, vaddr, vword >> 21) < 0) {
            h->err = CW_ERR_OOM;
            return -1;
        }
        h->s_writebacks_to_memory++;
    }
    return 0;
}

/* _fetch_into_llc (flat-DRAM only — install refuses open-page mode);
 * returns the memory latency or -1. */
static int64_t cw_fetch_into_llc(cw_hier *h, uint64_t line_addr, int64_t now,
                                 int demand, cw_cache *sl, int si)
{
    int captured = 0;
    int64_t free_at, start, latency;
    uint64_t version, base_word, set, sbase, vaddr = 0, vword = 0, vstamp = 0;
    uint64_t *tags;
    uint32_t i;
    int have = 0;
    if (demand && h->mon_kind) {
        if (h->mon_kind == 1) {
            /* PiPoMonitor inline: stats bump + Auto-Cuckoo access in
             * C; capture side effects (captured_lines, alarm publish)
             * via callback only when the config has them. */
            h->m_accesses++;
            if (acf_access(h->acf, line_addr) >= (int)h->thresh) {
                h->m_captures++;
                if (h->capture_cb) {
                    h->cb_fired = 1;
                    if (cw_cb_capture(h->ctx, line_addr, now) != 0) {
                        h->err = CW_ERR_CALLBACK;
                        return -1;
                    }
                }
                captured = 1;
            }
        } else {
            int r;
            h->cb_fired = 1;
            r = cw_cb_access(h->ctx, line_addr, now);
            if (r < 0) {
                h->err = CW_ERR_CALLBACK;
                return -1;
            }
            captured = r;
        }
    }
    free_at = h->channel_free_at;
    start = now > free_at ? now : free_at;
    h->channel_free_at = start + h->burst_cycles;
    h->total_queue_wait += (uint64_t)(start - now);
    if (demand)
        h->demand_fetches++;
    else
        h->prefetch_fetches++;
    latency = start - now + h->dram_latency;
    version = cw_map_get(&h->memver, line_addr);
    if (demand)
        base_word = (version << 21) | (captured ? 6ULL : 0ULL);
    else
        base_word = (version << 21) | 2ULL;
    set = line_addr & sl->set_mask;
    sbase = set * sl->ways;
    tags = sl->tags + sbase;
    for (i = 0; i < sl->ways; i++) {
        if (tags[i] == line_addr) {
            h->err = CW_ERR_DUP;
            h->err_addr = line_addr;
            h->err_cache = 3 * h->num_cores + si;
            return -1;
        }
    }
    if (sl->counts[set] >= sl->ways) {
        int64_t vs;
        vaddr = cw_llc_victim(h, sl, si, set);
        vs = cw_slot(sl, vaddr);
        vstamp = sl->stamps[vs];
        vword = sl->words[vs];
        cw_del(sl, vs, vaddr);
        sl->evictions++;
        have = 1;
    }
    sl->stamp++;
    for (i = 0; i < sl->ways; i++) {
        if (tags[i] == CW_EMPTY) {
            tags[i] = line_addr;
            sl->words[sbase + i] = base_word;
            sl->stamps[sbase + i] = sl->stamp;
            break;
        }
    }
    sl->counts[set]++;
    if (have && cw_handle_llc_evict(h, vaddr, vword, vstamp, now) < 0)
        return -1;
    return latency;
}

/* _serve_llc_hit: returns the coherence penalty or -1. */
static int64_t cw_serve_llc_hit(cw_hier *h, int core, int op,
                                uint64_t line_addr, int64_t now,
                                cw_cache *sl, int64_t ls)
{
    int64_t penalty = 0;
    uint64_t lw = sl->words[ls];
    uint64_t others = ((lw >> 5) & CW_SMASK) & ~(1ULL << core);
    uint64_t state;
    if (others) {
        int other;
        for (other = 0; other < h->num_cores; other++) {
            if (!((others >> other) & 1))
                continue;
            if (cw_flush_core_line(h, other, line_addr, sl, ls)) {
                penalty += h->dfp;
                h->s_dirty_forwards++;
            }
        }
        if (op == 1) {
            cw_inval_other(h, core, line_addr, sl, ls);
            state = 3;
        } else {
            state = 1;
        }
        lw = sl->words[ls];
    } else {
        state = (op == 1) ? 3 : 2;
    }
    if (lw & 2)
        sl->words[ls] = lw | 4;
    if (cw_fill_private(h, core, op, line_addr, state, sl, ls) < 0)
        return -1;
    if (op == 1)
        cw_mark_written(h, core, op, line_addr);
    sl->stamp++;
    if (h->llc_touch)
        sl->stamps[ls] = sl->stamp;
    /* else: the policy's on_touch is the base-class no-op (FIFO) —
     * install refuses anything else. */
    return penalty;
}

/* ------------------------------------------------------------------ */
/* Entry points. */

int64_t cw_clflush(cw_hier *h, int core, uint64_t addr, int64_t now)
{
    uint64_t line_addr = addr >> h->line_bits;
    int64_t latency = h->l1_lat + h->llc_lat;
    int si = cw_slice_idx(h, line_addr);
    cw_cache *sl = &h->caches[3 * h->num_cores + si];
    int64_t ls;
    uint64_t word, stamp, sharers, dirty, version;
    int c;
    h->s_flushes++;
    ls = cw_slot(sl, line_addr);
    if (ls < 0)
        return latency;
    word = sl->words[ls];
    stamp = sl->stamps[ls];
    cw_del(sl, ls, line_addr);
    h->s_flush_hits++;
    latency += h->llc_lat;
    if (h->mon_kind && ((word & 2) || h->needs_all)) {
        uint64_t out;
        h->cb_fired = 1;
        if (cw_cb_evict(h->ctx, line_addr, word, stamp, now, &out) != 0) {
            h->err = CW_ERR_CALLBACK;
            return -1;
        }
        word = out;
    }
    sharers = (word >> 5) & CW_SMASK;
    dirty = word & 1;
    version = word >> 21;
    for (c = 0; c < h->num_cores; c++) {
        uint64_t v;
        if (!((sharers >> c) & 1))
            continue;
        h->s_flush_back_invalidations++;
        if (cw_scrub(h, c, line_addr, &v)) {
            dirty = 1;
            if (v > version)
                version = v;
        }
    }
    if (dirty) {
        int64_t start = now > h->channel_free_at ? now : h->channel_free_at;
        h->total_queue_wait += (uint64_t)(start - now);
        h->channel_free_at = start + h->burst_cycles;
        h->writebacks++;
        if (cw_map_set(&h->memver, line_addr, version) < 0) {
            h->err = CW_ERR_OOM;
            return -1;
        }
        h->s_writebacks_to_memory++;
        h->s_flush_writebacks++;
        latency += h->dram_latency;
    }
    return latency;
}

int cw_prefetch_fill(cw_hier *h, uint64_t line_addr, int64_t now, int tag)
{
    int si = cw_slice_idx(h, line_addr);
    cw_cache *sl = &h->caches[3 * h->num_cores + si];
    int64_t ls = cw_slot(sl, line_addr);
    uint64_t w;
    if (ls >= 0) {
        h->s_prefetch_skipped++;
        return 0;
    }
    if (cw_fetch_into_llc(h, line_addr, now, 0, sl, si) < 0)
        return -1;
    ls = cw_slot(sl, line_addr);
    if (ls < 0) {
        /* The generic engine would KeyError here; it cannot happen
         * (an eviction chain never evicts the line just inserted). */
        h->err = CW_ERR_LOST_PF;
        h->err_addr = line_addr;
        return -1;
    }
    w = sl->words[ls];
    sl->words[ls] = tag ? (w | 2ULL) : (w & ~2ULL);
    h->s_prefetch_fills++;
    return 1;
}

int64_t cw_access(cw_hier *h, int core, int op, uint64_t addr, int64_t now)
{
    uint64_t line_addr = addr >> h->line_bits;
    cw_cache *l1, *l2, *sl;
    int64_t latency, s, s2, ls, mem, pen;
    int si, l2_idx;
    uint64_t state;
    if (op == 0) {  /* OP_READ */
        l1 = &h->caches[core];
        s = cw_slot(l1, line_addr);
        if (s >= 0) {
            l1->hits++;
            l1->stamp++;
            l1->stamps[s] = l1->stamp;
            h->s_l1_hits++;
            h->s_total_latency += (uint64_t)h->l1_lat;
            h->per_core[core]++;
            return h->l1_lat;
        }
    } else {
        if (op == 3)  /* OP_FLUSH */
            return cw_clflush(h, core, addr, now);
        l1 = &h->caches[(op == 2 ? h->num_cores : 0) + core];
        s = cw_slot(l1, line_addr);
        if (s >= 0) {
            uint64_t w = l1->words[s];
            latency = h->l1_lat;
            l1->hits++;
            h->s_l1_hits++;
            if (op == 1) {  /* OP_WRITE */
                state = (w >> 3) & 3;
                if (state != 3) {
                    int64_t extra = cw_write_hit(h, core, line_addr, state);
                    if (extra < 0)
                        return -1;
                    latency += extra;
                    w = l1->words[s];  /* upgrade rewrote the state */
                }
                h->write_counter++;
                l1->words[s] = (w & CW_VB) | (h->write_counter << 21) | 1ULL;
                h->s_writes++;
            } else {
                h->s_ifetches++;
            }
            l1->stamp++;
            l1->stamps[s] = l1->stamp;
            h->s_total_latency += (uint64_t)latency;
            h->per_core[core]++;
            return latency;
        }
    }
    l1->misses++;
    h->s_l1_misses++;
    latency = h->l1_lat + h->l2_lat;

    /* ---- L2 ---- */
    l2_idx = 2 * h->num_cores + core;
    l2 = &h->caches[l2_idx];
    s2 = cw_slot(l2, line_addr);
    if (s2 >= 0) {
        uint64_t w = l2->words[s2];
        l2->hits++;
        h->s_l2_hits++;
        if (op == 1) {
            int64_t extra = cw_write_hit(h, core, line_addr, (w >> 3) & 3);
            if (extra < 0)
                return -1;
            latency += extra;
            w = l2->words[s2];  /* state rewritten by the upgrade */
        }
        if (cw_fill_l1(h, core, l1,
                       (op == 2 ? h->num_cores : 0) + core,
                       line_addr, (w >> 3) & 3, w >> 21) < 0)
            return -1;
        if (op == 1)
            cw_mark_written(h, core, op, line_addr);
        l2->stamp++;
        l2->stamps[s2] = l2->stamp;
        h->s_total_latency += (uint64_t)latency;
        if (op == 1)
            h->s_writes++;
        else if (op == 2)
            h->s_ifetches++;
        h->per_core[core]++;
        return latency;
    }
    l2->misses++;
    h->s_l2_misses++;

    /* ---- LLC ---- */
    latency += h->llc_lat;
    si = cw_slice_idx(h, line_addr);
    sl = &h->caches[3 * h->num_cores + si];
    ls = cw_slot(sl, line_addr);
    if (ls >= 0) {
        h->s_llc_hits++;
        pen = cw_serve_llc_hit(h, core, op, line_addr, now, sl, ls);
        if (pen < 0)
            return -1;
        latency += pen;
        if (op == 1)
            h->s_writes++;
        else if (op == 2)
            h->s_ifetches++;
        h->s_total_latency += (uint64_t)latency;
        h->per_core[core]++;
        return latency;
    }
    h->s_llc_misses++;

    /* ---- Memory ---- */
    mem = cw_fetch_into_llc(h, line_addr, now + latency, 1, sl, si);
    if (mem < 0)
        return -1;
    latency += mem;
    state = (op == 1) ? 3 : 2;  /* MODIFIED : EXCLUSIVE */
    ls = cw_slot(sl, line_addr);
    if (cw_fill_private(h, core, op, line_addr, state, sl, ls) < 0)
        return -1;
    if (op == 1) {
        cw_mark_written(h, core, op, line_addr);
        h->s_writes++;
    } else if (op == 2) {
        h->s_ifetches++;
    }
    h->s_total_latency += (uint64_t)latency;
    h->per_core[core]++;
    return latency;
}

int64_t cw_access_many(cw_hier *h, const int32_t *cores, const int32_t *ops,
                       const uint64_t *addrs, int64_t n, int64_t now,
                       int64_t *lat_out)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t lat = cw_access(h, cores[i], ops[i], addrs[i], now);
        if (lat < 0)
            return i;  /* error at request i (err already set) */
        lat_out[i] = lat;
    }
    return -1;  /* all served */
}

/* ------------------------------------------------------------------ */
/* Packed workload records (workloads/base.py): op + 1 in bits 0-3
 * (0 = pure compute), the compute gap in bits 4-17, the line address
 * from bit 18. */
#define CW_REC_OP_MASK       0xFULL
#define CW_REC_COMPUTE_SHIFT 4
#define CW_REC_COMPUTE_MAX   0x3FFFULL
#define CW_REC_ADDR_SHIFT    18

/* ------------------------------------------------------------------ */
/* Multicore scheduler over record chunks (MulticoreSystem.run's loop).
 *
 * Each step picks the active core with the smallest (time, index) —
 * the Python heap's order — executes its pending op through
 * cw_access, applies the instruction budget, and pops and decodes the
 * core's next packed record.  Control returns to Python whenever
 * Python has work to do: */
#define CW_RUN_DONE     0  /* every core finished */
#define CW_RUN_CHUNK    1  /* core *which needs its next record chunk */
#define CW_RUN_EVENT    2  /* core *which's op would reach event_time */
#define CW_RUN_CALLBACK 3  /* a walk callback fired (events may be new) */
#define CW_RUN_ERROR   -1  /* cw_access failed (err set) */

int cw_run(cw_hier *h, cw_core *cores, int n, int64_t budget,
           int has_event, int64_t event_time, int *which)
{
    h->cb_fired = 0;
    for (;;) {
        cw_core *c = NULL;
        int i, best = -1;
        for (i = 0; i < n; i++) {
            if (cores[i].active && (c == NULL || cores[i].time < c->time)) {
                c = &cores[i];
                best = i;
            }
        }
        if (c == NULL)
            return CW_RUN_DONE;
        *which = best;
        if (has_event && event_time <= c->time)
            return CW_RUN_EVENT;
        if (c->pending_op >= 0) {
            int64_t lat = cw_access(h, best, c->pending_op,
                                    (uint64_t)c->pending_addr, c->time);
            if (lat < 0)
                return CW_RUN_ERROR;
            c->time += lat;
            c->instructions++;
            c->memory_ops++;
            c->last_latency = lat;
            c->pending_op = -1;
        }
        if (c->instructions >= budget) {
            c->active = 0;
        } else if (c->pos >= c->n) {
            return CW_RUN_CHUNK;
        } else {
            uint64_t rec = (uint64_t)c->recs[c->pos++];
            int64_t compute = (int64_t)((rec >> CW_REC_COMPUTE_SHIFT)
                                        & CW_REC_COMPUTE_MAX);
            c->time += compute;
            c->instructions += compute;
            if ((rec & CW_REC_OP_MASK) == 0) {
                c->last_latency = 0;
            } else {
                c->pending_op = (int32_t)(rec & CW_REC_OP_MASK) - 1;
                c->pending_addr = (int64_t)((rec >> CW_REC_ADDR_SHIFT) << 6);
            }
        }
        if (h->cb_fired)
            return CW_RUN_CALLBACK;
    }
}

/* ------------------------------------------------------------------ */
/* Synthetic workload emission: _SyntheticWorkload.record_chunks and
 * its five line pickers (workloads/synthetic.py) in exact
 * random.Random lockstep — the same draws in the same order, the same
 * records, written packed.  Python seeds the streams (rng from
 * Random.getstate()) and computes every float threshold and the
 * stencil side, so C compares identical doubles; record_chunks stays
 * the reference.  data_base and code_base are line addresses; the
 * picked lines and conflict_base are line offsets from data_base;
 * current_line -1 means no line yet; position is the stream picker's
 * last line or the pointer chase's current line. */
#define CW_PICK_STREAM  0
#define CW_PICK_RANDOM  1
#define CW_PICK_POINTER 2
#define CW_PICK_STENCIL 3
#define CW_PICK_HOTCOLD 4

/* Hierarchy opcodes (cache/hierarchy.py). */
#define CW_OP_READ   0
#define CW_OP_WRITE  1
#define CW_OP_IFETCH 2

""" + _EMIT_STRUCT + """
/* The pointer chase's Hamiltonian cycle: Random.shuffle of
 * range(n), then each line links to its successor in that order. */
int cw_emit_chain(cw_mt *r, uint32_t *chain, uint32_t n)
{
    uint32_t i, t, *order = malloc((size_t)n * sizeof *order);
    if (order == NULL)
        return -1;
    for (i = 0; i < n; i++)
        order[i] = i;
    for (i = n - 1; i >= 1; i--) {
        uint32_t j = cw_randbelow(r, i + 1);
        t = order[i];
        order[i] = order[j];
        order[j] = t;
    }
    for (i = 0; i + 1 < n; i++)
        chain[order[i]] = order[i + 1];
    chain[order[n - 1]] = order[0];
    free(order);
    return 0;
}

static uint64_t cw_next_line(cw_emit *e)
{
    static const int64_t di[5] = {0, -1, 1, 0, 0};
    static const int64_t dj[5] = {0, 0, 0, -1, 1};
    int64_t k, side;
    switch (e->picker) {
    case CW_PICK_STREAM:
        if (++e->position == e->num_lines)
            e->position = 0;
        return e->position;
    case CW_PICK_RANDOM:
        return cw_randbelow(&e->rng, e->num_lines);
    case CW_PICK_POINTER:
        return e->position = e->chain[e->position];
    case CW_PICK_STENCIL:
        /* The offset is read before the sweep advances, the
         * coordinates after (as in the Python picker). */
        k = e->sk;
        side = e->side;
        if (++e->sk == 5) {
            e->sk = 0;
            if (++e->sj >= side) {
                e->sj = 0;
                e->si = (e->si + 1) % side;
            }
        }
        return (uint64_t)(((e->si + side + di[k]) % side) * side
                          + (e->sj + side + dj[k]) % side);
    default:  /* CW_PICK_HOTCOLD */
        if (cw_random(&e->rng) < e->hot_probability)
            return cw_randbelow(&e->rng, e->hot_lines);
        return cw_randbelow(&e->rng, e->num_lines);
    }
}

void cw_emit_fill(cw_emit *e, int64_t *out, int64_t n)
{
    /* A local copy keeps the loop's state out of out[]'s alias set. */
    cw_emit s = *e;
    int64_t i;
    for (i = 0; i < n; i++) {
        uint64_t gap = (uint64_t)s.gap_base
            + (cw_random(&s.rng) < s.gap_frac ? 1 : 0);
        double roll = cw_random(&s.rng);
        uint64_t line;
        int op;
        if (roll >= s.conflict_limit) {
            if (s.visits_left > 0 && s.current_line >= 0) {
                s.visits_left--;
                line = (uint64_t)s.current_line;
            } else {
                line = cw_next_line(&s);
                s.current_line = (int64_t)line;
                s.visits_left = s.visits_per_line;
            }
            op = cw_random(&s.rng) < s.write_fraction
                ? CW_OP_WRITE : CW_OP_READ;
            line += s.data_base;
        } else if (roll < s.ifetch_limit) {
            if (++s.code_line == s.code_lines)
                s.code_line = 0;
            op = CW_OP_IFETCH;
            line = s.code_base + s.code_line;
        } else {
            if (++s.conflict_index == s.conflict_lines)
                s.conflict_index = 0;
            line = s.data_base + s.conflict_base
                + s.conflict_index * s.conflict_stride;
            op = cw_random(&s.rng) < s.write_fraction
                ? CW_OP_WRITE : CW_OP_READ;
        }
        out[i] = (int64_t)((line << CW_REC_ADDR_SHIFT)
                           | (gap << CW_REC_COMPUTE_SHIFT)
                           | (uint64_t)(op + 1));
    }
    *e = s;
}
"""
