/* C trace callback for verifier line-edge coverage.
 *
 * Python-level tracing (sys.settrace) costs ~1.5us per line event in
 * the interpreter's trace dispatch alone, which dominates campaign
 * wall time: the verifier executes a few thousand traced lines per
 * generated program.  This module registers the same line-edge
 * collection through PyEval_SetTrace, where an event costs a C call
 * and a hash-table insert.
 *
 * On CPython 3.11 a trace function makes *every* Python call pay, in
 * scope or not: the frame object is materialised and the callback
 * runs on call and return.  Most calls land in out-of-scope helpers,
 * so the per-call path is kept O(1): a code object's classification
 * is cached in its own co_extra slot (no dict lookup, which would
 * re-hash the code object), and out-of-scope frames have their line
 * events switched off through a once-interned attribute name.
 *
 * Edge keys are BIT-IDENTICAL to the settrace backend in
 * repro/fuzz/coverage.py:
 *
 *     code_id = crc32(f"{basename}:{qualname}:{firstlineno}")
 *     key     = (code_id << 30) | ((prev & 0x7fff) << 15) | (line & 0x7fff)
 *
 * so edge sets from either backend compare and union freely (the
 * cross-backend parity test asserts this).  Scope filtering matches
 * too: only code objects whose filename starts with the configured
 * prefix contribute edges; everything else has its per-frame line
 * tracing disabled on entry.
 *
 * Collected edges live in a C open-addressing hash set of uint64 and
 * are only materialised as Python ints when stop() drains the window,
 * so the per-event cost stays allocation-free.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#if UINTPTR_MAX < 0xffffffffffffffffull
#error "ctrace packs a 64-bit classification into a co_extra pointer"
#endif

#define LINE_BITS 15
#define LINE_MASK ((1u << LINE_BITS) - 1)

/* ---- crc32 (zlib polynomial), table generated at init ---------------- */

static uint32_t crc_table[256];

static void
crc_init(void)
{
    for (uint32_t n = 0; n < 256; n++) {
        uint32_t c = n;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        crc_table[n] = c;
    }
}

static uint32_t
crc32_buf(const unsigned char *buf, Py_ssize_t len)
{
    uint32_t c = 0xffffffffu;
    for (Py_ssize_t i = 0; i < len; i++)
        c = crc_table[(c ^ buf[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

/* ---- uint64 open-addressing hash set --------------------------------- */

typedef struct {
    uint64_t *slots;   /* 0 = empty (edge keys are never 0: code_id!=0) */
    size_t mask;       /* capacity - 1, capacity is a power of two */
    size_t used;
} edgeset;

static int
edgeset_init(edgeset *s, size_t cap)
{
    s->slots = calloc(cap, sizeof(uint64_t));
    if (!s->slots)
        return -1;
    s->mask = cap - 1;
    s->used = 0;
    return 0;
}

static void
edgeset_free(edgeset *s)
{
    free(s->slots);
    s->slots = NULL;
    s->used = 0;
    s->mask = 0;
}

static int edgeset_add(edgeset *s, uint64_t key);

static int
edgeset_grow(edgeset *s)
{
    edgeset bigger;
    if (edgeset_init(&bigger, (s->mask + 1) * 2) < 0)
        return -1;
    for (size_t i = 0; i <= s->mask; i++)
        if (s->slots[i])
            edgeset_add(&bigger, s->slots[i]);
    free(s->slots);
    *s = bigger;
    return 0;
}

static int
edgeset_add(edgeset *s, uint64_t key)
{
    size_t i = (size_t)(key * 0x9e3779b97f4a7c15ull) & s->mask;
    for (;;) {
        uint64_t cur = s->slots[i];
        if (cur == key)
            return 0;
        if (cur == 0) {
            s->slots[i] = key;
            s->used++;
            if (s->used * 10 > (s->mask + 1) * 7)
                return edgeset_grow(s);
            return 0;
        }
        i = (i + 1) & s->mask;
    }
}

/* ---- per-frame shadow stack ------------------------------------------ */

/* Scoped frames are entered/left strictly LIFO within one thread; the
 * tracer only runs while the (single-threaded) verifier executes.  A
 * small stack keyed by the frame object pointer carries each scoped
 * frame's code_id and previous line. */

typedef struct {
    PyFrameObject *frame;
    uint64_t shifted;     /* code_id << (2 * LINE_BITS) */
    int prev;
} frame_entry;

#define MAX_DEPTH 256

typedef struct {
    PyObject *prefix;         /* str: traced filename prefix */
    PyObject *basenames;      /* set/frozenset of traced basenames, or NULL */
    uint32_t generation;      /* scope generation tagging co_extra entries */
    edgeset edges;
    frame_entry stack[MAX_DEPTH];
    int depth;
    int active;
} tracer_state;

static tracer_state T;

/* co_extra slot holding each code object's classification, and the
 * interned attribute name set on out-of-scope frames. */
static Py_ssize_t extra_index = -1;
static PyObject *f_trace_lines_name;

/* Compute a code object's code_id: crc32 of its stable identity if
 * its file is in scope, else 0 (crc32 of a non-empty identity string
 * is never 0 in practice; collisions with 0 would only drop that one
 * function from coverage, deterministically). */
static uint64_t
classify(PyCodeObject *code)
{
    PyObject *filename = code->co_filename;
    uint64_t result = 0;
    if (PyUnicode_Check(filename) &&
        PyUnicode_Tailmatch(filename, T.prefix, 0, PY_SSIZE_T_MAX, -1) == 1) {
        /* basename(filename):qualname:firstlineno — identical to
         * coverage._stable_code_id. */
        PyObject *base = NULL, *qual = NULL, *ident = NULL, *encoded = NULL;
        Py_ssize_t pos = PyUnicode_FindChar(filename, '/', 0,
                                            PyUnicode_GET_LENGTH(filename), -1);
        base = (pos >= 0)
            ? PyUnicode_Substring(filename, pos + 1,
                                  PyUnicode_GET_LENGTH(filename))
            : Py_NewRef(filename);
        int scoped = base != NULL;
        if (scoped && T.basenames && T.basenames != Py_None) {
            int member = PySet_Contains(T.basenames, base);
            if (member < 0) {
                PyErr_Clear();
                member = 0;
            }
            scoped = member;
        }
        if (scoped) {
            qual = code->co_qualname ? Py_NewRef(code->co_qualname)
                                     : Py_NewRef(code->co_name);
            if (base && qual)
                ident = PyUnicode_FromFormat("%U:%U:%d", base, qual,
                                             code->co_firstlineno);
            if (ident)
                encoded = PyUnicode_AsUTF8String(ident);
            if (encoded)
                result = crc32_buf(
                    (unsigned char *)PyBytes_AS_STRING(encoded),
                    PyBytes_GET_SIZE(encoded));
        }
        Py_XDECREF(encoded);
        Py_XDECREF(ident);
        Py_XDECREF(qual);
        Py_XDECREF(base);
        if (PyErr_Occurred()) {
            PyErr_Clear();
            result = 0;
        }
    }
    return result;
}

/* code_id for a code object, classified once per scope generation.
 *
 * On 3.11 every frame pays the trace dispatch, so this runs on every
 * Python call in the process, in scope or not.  A dict keyed by the
 * code object would re-hash it each time (a code object does not
 * cache its hash: co_consts, names and bytecode are hashed anew), so
 * the classification lives in the code object's own co_extra slot,
 * packed into the pointer as (generation << 32) | code_id.  A start()
 * with a different scope bumps the generation, which makes every
 * earlier entry stale. */
static uint64_t
code_id_for(PyCodeObject *code)
{
    void *extra = NULL;
    if (_PyCode_GetExtra((PyObject *)code, extra_index, &extra) < 0) {
        PyErr_Clear();
        extra = NULL;
    }
    uint64_t tag = (uint64_t)(uintptr_t)extra;
    if ((uint32_t)(tag >> 32) == T.generation)
        return tag & 0xffffffffu;
    uint64_t cid = classify(code);
    tag = ((uint64_t)T.generation << 32) | cid;
    if (_PyCode_SetExtra((PyObject *)code, extra_index,
                         (void *)(uintptr_t)tag) < 0)
        PyErr_Clear();
    return cid;
}

static int
trace_func(PyObject *obj, PyFrameObject *frame, int what, PyObject *arg)
{
    (void)obj;
    (void)arg;
    switch (what) {
    case PyTrace_CALL: {
        PyCodeObject *code = PyFrame_GetCode(frame);
        uint64_t cid = code_id_for(code);
        Py_DECREF(code);
        if (cid == 0) {
            /* Out of scope: stop line events for this frame entirely. */
            if (PyObject_SetAttr((PyObject *)frame, f_trace_lines_name,
                                 Py_False) < 0)
                PyErr_Clear();
            return 0;
        }
        if (T.depth < MAX_DEPTH) {
            frame_entry *e = &T.stack[T.depth++];
            e->frame = frame;
            e->shifted = cid << (2 * LINE_BITS);
            e->prev = PyFrame_GetLineNumber(frame);
        }
        return 0;
    }
    case PyTrace_LINE: {
        if (T.depth == 0)
            return 0;
        frame_entry *e = &T.stack[T.depth - 1];
        if (e->frame != frame)
            return 0;
        int line = PyFrame_GetLineNumber(frame);
        uint64_t key = e->shifted
            | (((uint64_t)(e->prev & LINE_MASK)) << LINE_BITS)
            | (uint64_t)(line & LINE_MASK);
        e->prev = line;
        if (edgeset_add(&T.edges, key) < 0) {
            PyErr_NoMemory();
            return -1;
        }
        return 0;
    }
    case PyTrace_RETURN:
        if (T.depth > 0 && T.stack[T.depth - 1].frame == frame)
            T.depth--;
        return 0;
    default:
        return 0;
    }
}

/* ---- module API ------------------------------------------------------- */

static PyObject *
ctrace_start(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *prefix;
    PyObject *basenames = NULL;
    if (!PyArg_ParseTuple(args, "U|O", &prefix, &basenames))
        return NULL;
    if (T.active) {
        PyErr_SetString(PyExc_RuntimeError, "ctrace already active");
        return NULL;
    }
    if (edgeset_init(&T.edges, 4096) < 0)
        return PyErr_NoMemory();
    /* Scope parameters feed the per-code-object classification; a
     * different (prefix, basenames) pair starts a new generation, so
     * every classification cached under the old one is recomputed.
     * The common case — every window uses the same scope objects — is
     * an identity comparison and keeps the cache warm.  Generation 0
     * means "never classified" (an empty co_extra slot). */
    if (T.prefix != prefix || T.basenames != basenames) {
        if (++T.generation == 0)
            T.generation = 1;
    }
    Py_INCREF(prefix);
    Py_XSETREF(T.prefix, prefix);
    Py_XINCREF(basenames);
    Py_XSETREF(T.basenames, basenames);
    T.depth = 0;
    T.active = 1;
    PyEval_SetTrace(trace_func, NULL);
    Py_RETURN_NONE;
}

static PyObject *
ctrace_stop(PyObject *self, PyObject *args)
{
    (void)self;
    (void)args;
    if (!T.active) {
        PyErr_SetString(PyExc_RuntimeError, "ctrace not active");
        return NULL;
    }
    PyEval_SetTrace(NULL, NULL);
    T.active = 0;
    PyObject *result = PySet_New(NULL);
    if (!result) {
        edgeset_free(&T.edges);
        return NULL;
    }
    for (size_t i = 0; i <= T.edges.mask; i++) {
        uint64_t key = T.edges.slots[i];
        if (!key)
            continue;
        PyObject *v = PyLong_FromUnsignedLongLong(key);
        if (!v || PySet_Add(result, v) < 0) {
            Py_XDECREF(v);
            Py_DECREF(result);
            edgeset_free(&T.edges);
            return NULL;
        }
        Py_DECREF(v);
    }
    edgeset_free(&T.edges);
    return result;
}

static PyMethodDef ctrace_methods[] = {
    {"start", ctrace_start, METH_VARARGS,
     "start(prefix): begin collecting line edges for code under prefix"},
    {"stop", ctrace_stop, METH_NOARGS,
     "stop() -> set[int]: stop collecting and return the edge window"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ctrace_module = {
    PyModuleDef_HEAD_INIT, "_bvf_ctrace",
    "C trace callback for verifier coverage", -1, ctrace_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__bvf_ctrace(void)
{
    crc_init();
    if (extra_index < 0) {
        /* The classification is packed into the slot pointer itself,
         * so nothing needs freeing when a code object dies. */
        extra_index = _PyEval_RequestCodeExtraIndex(NULL);
        if (extra_index < 0) {
            PyErr_SetString(PyExc_RuntimeError, "no free co_extra index");
            return NULL;
        }
    }
    f_trace_lines_name = PyUnicode_InternFromString("f_trace_lines");
    if (!f_trace_lines_name)
        return NULL;
    return PyModule_Create(&ctrace_module);
}
