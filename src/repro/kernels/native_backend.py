"""Native C kernels for the canonical path engine (``REPRO_KERNEL=native``).

**Why this is legal.**  This backend runs *the same algorithm* as the
pure-Python reference (:mod:`repro.kernels.python_backend`), compiled:
the same lazy binary heap keyed by ``(distance, node index)``, the same
canonical tie rules, the same relaxation order, and counter
accumulation at the same program points, over IEEE-754 doubles with FP
contraction disabled.  Outputs and perf counters are therefore bitwise
identical to the reference backend at **every** input size — there are
no eligibility gates here: the single-source rows, targeted early-exit
searches, small Ramalingam–Reps repairs and the ILM decomposition DP
all run native.

**No new dependencies.**  The kernels live in ``_native.c`` next to
this file and are compiled at first use with the system C compiler
(``$CC``, else the first of ``cc``/``gcc``/``clang`` on PATH) into a
shared object cached under ``~/.cache/repro/`` (override with
``REPRO_NATIVE_CACHE``), keyed by the SHA-256 of the source text plus
the compiler's version banner — editing the source or switching
toolchains recompiles, everything else reuses the cached build.
Importing this module raises :class:`ImportError` when no toolchain is
available, so ``REPRO_KERNEL=auto`` silently degrades to the
reference backend while an explicit ``REPRO_KERNEL=native`` fails
loudly.

**Zero-copy.**  The C entry points take raw pointers into the existing
CSR buffers — ``array.array`` snapshots or shared-memory memoryview
casts from :mod:`repro.graph.shm` — and the per-view dead masks;
addresses are resolved once and cached on the snapshot
(``CsrGraph.native_ptrs``) and view (``CsrView.native_state``).  Calls
release the GIL (plain ``ctypes`` foreign calls), so ``--jobs`` workers
and threads overlap native settles.

**One decomposition crossing per ILM scenario.**  ``decompose_flat``
takes all of a scenario's decomposition-memo misses at once: flat
chain and prefix-sum buffers cut by an offsets array, plus a table of
dist-row addresses indexed by node.  The C DP reads
``rows[chain[j]][chain[i]]`` straight from the oracle's own buffers —
``array('d')`` rows by address, and rows adopted from a shared-memory
``RROW`` segment in place at the segment's address — so no row is
copied per call and nothing calls back into Python.

**Backup paths without n-length Python lists.**  ``preorder`` lays out
a cached row's tree in C, and ``repair_resettle`` reads the cached
pre-failure row (adopted read-only rows in place), the preorder and
the affected slices, copies and masks in C, and writes the repaired
row into arrays the caller owns.  Given ``out`` arrays, the targeted
``dijkstra_canonical``/``bfs`` searches write there too instead of
returning lists.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from array import array
from pathlib import Path
from typing import Iterable, Optional

from ..perf import COUNTERS

NAME = "native"
INF = float("inf")

_SOURCE_PATH = Path(__file__).with_name("_native.c")

#: Sources per batched C call: bounds the transient ``dist``/``pred``
#: block at a few MB while amortizing call overhead across the batch.
ROWS_CHUNK = 256


class NativeUnavailable(ImportError):
    """The native backend cannot be built/loaded in this environment.

    Subclasses :class:`ImportError` so ``REPRO_KERNEL=auto`` falls back
    through its normal import-failure path.
    """


# -- compile-at-first-use build cache -----------------------------------------


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler to use, or ``None``.

    ``$CC`` wins when it resolves; otherwise the first of ``cc``,
    ``gcc``, ``clang`` found on PATH.
    """
    override = os.environ.get("CC", "").strip()
    candidates = (override,) if override else ()
    for name in (*candidates, "cc", "gcc", "clang"):
        if not name:
            continue
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    """Directory holding compiled kernel objects."""
    override = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _compiler_tag(cc: str) -> str:
    """Version banner used in the cache key (toolchain switch ⇒ rebuild)."""
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=60
        )
        banner = (proc.stdout or proc.stderr).splitlines()
        return banner[0] if banner else ""
    except (OSError, subprocess.SubprocessError):
        return ""


#: ``-ffp-contract=off`` forbids fused multiply-add contraction so every
#: float64 addition rounds exactly like CPython's — bit-identity with the
#: reference backend depends on it.
_CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")


def build_library(
    source: Path = _SOURCE_PATH, cache: Optional[Path] = None
) -> Path:
    """Compile (or reuse) the kernel shared object; returns its path.

    The output name is keyed by the SHA-256 of the source bytes, the
    compiler version banner, and the compile flags, so a stale cache
    entry can never be served for edited source (or changed codegen)
    and concurrent builders race benignly (build to a pid-suffixed temp
    file, publish with an atomic ``os.replace``).
    """
    cc = find_compiler()
    if cc is None:
        raise NativeUnavailable(
            "native kernel backend needs a C compiler: none of $CC, cc, "
            "gcc, clang resolved on PATH (REPRO_KERNEL=auto falls back "
            "automatically; explicit REPRO_KERNEL=native does not)"
        )
    text = source.read_bytes()
    key = hashlib.sha256(
        text
        + b"\x00" + _compiler_tag(cc).encode("utf-8", "replace")
        + b"\x00" + " ".join(_CFLAGS).encode("ascii")
    ).hexdigest()[:20]
    out_dir = cache if cache is not None else cache_dir()
    so_path = out_dir / f"repro_native-{key}.so"
    if so_path.exists():
        return so_path
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / f"repro_native-{key}.{os.getpid()}.tmp.so"
    cmd = [cc, *_CFLAGS, "-o", str(tmp), str(source), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise NativeUnavailable(f"failed to invoke {cc}: {exc}") from exc
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise NativeUnavailable(
            "native kernel compilation failed:\n"
            + (proc.stderr or proc.stdout).strip()[:2000]
        )
    os.replace(tmp, so_path)
    return so_path


def _load() -> ctypes.CDLL:
    if array("l").itemsize != 8:
        raise NativeUnavailable(
            "native kernel backend assumes 64-bit C long CSR buffers"
        )
    so_path = build_library()
    try:
        return ctypes.CDLL(str(so_path))
    except OSError:
        # A truncated/foreign cache entry: rebuild once, then give up.
        so_path.unlink(missing_ok=True)
        try:
            return ctypes.CDLL(str(build_library()))
        except OSError as exc:  # pragma: no cover - corrupt toolchain
            raise NativeUnavailable(f"cannot load native kernels: {exc}")


_i64 = ctypes.c_int64
_i64p = ctypes.POINTER(ctypes.c_int64)
_ptr = ctypes.c_void_p

_LIB = _load()

_LIB.repro_dijkstra.restype = ctypes.c_int
_LIB.repro_dijkstra.argtypes = [
    _ptr, _ptr, _ptr, _i64, _ptr, _ptr, _i64, _ptr, _i64, _ptr, _ptr,
    _i64p, _i64p, _i64p,
]
_LIB.repro_bfs.restype = ctypes.c_int
_LIB.repro_bfs.argtypes = [
    _ptr, _ptr, _i64, _ptr, _ptr, _i64, _i64, _ptr, _ptr, _i64p, _i64p,
]
_LIB.repro_rows_many.restype = ctypes.c_int
_LIB.repro_rows_many.argtypes = [
    _ptr, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _i64, _i64, _ptr, _ptr,
    _i64p, _i64p,
]
_LIB.repro_preorder.restype = ctypes.c_int
_LIB.repro_preorder.argtypes = [_ptr, _i64, _i64, _ptr, _ptr, _ptr, _i64p]
_LIB.repro_repair.restype = ctypes.c_int
_LIB.repro_repair.argtypes = [
    _ptr, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _i64, _i64,
    _ptr, _ptr, _i64p, _i64p,
]
_LIB.repro_decompose_many.restype = ctypes.c_int
_LIB.repro_decompose_many.argtypes = [
    _i64, _ptr, _ptr, _ptr, _i64, _ptr, _i64, _i64, ctypes.c_double, _ptr,
    _ptr, _i64p, _i64p,
]


def library_path() -> Path:
    """Path of the shared object backing the loaded kernels."""
    return Path(_LIB._name)


def _check(status: int) -> None:
    if status == -1:
        raise MemoryError("native kernel allocation failed")
    if status != 0:
        raise RuntimeError(f"native kernel failed with status {status}")


# -- zero-copy pointer plumbing ------------------------------------------------


def _addr_of(buf) -> tuple[int, object]:
    """``(base address, keepalive)`` of a contiguous buffer, zero-copy.

    ``array.array`` exposes its address directly; anything else goes
    through the writable buffer protocol (shared-memory memoryview
    casts, bytearray masks).  Empty buffers yield a null pointer — the
    kernels never dereference them (no slots / no nodes to scan).
    """
    if isinstance(buf, array):
        return (buf.buffer_info()[0] if len(buf) else 0), buf
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    if view.nbytes == 0:
        return 0, view
    if view.readonly:
        view = memoryview(bytearray(view))
    pin = (ctypes.c_char * view.nbytes).from_buffer(view)
    return ctypes.addressof(pin), (view, pin)


def _graph_ptrs(csr) -> tuple[int, int, int, object]:
    """``(indptr, indices, weights)`` addresses, cached per snapshot."""
    ptrs = csr.native_ptrs
    if ptrs is None:
        indptr, k1 = _addr_of(csr.indptr)
        indices, k2 = _addr_of(csr.indices)
        weights, k3 = _addr_of(csr.weights)
        ptrs = csr.native_ptrs = (indptr, indices, weights, (k1, k2, k3))
    return ptrs


def _view_ptrs(view) -> tuple[int, int, object]:
    """``(edge_dead, node_dead)`` mask addresses, cached per view."""
    state = view.native_state
    if state is None:
        edge_mask, node_mask = view.masks()
        edge_dead, k1 = _addr_of(edge_mask)
        node_dead, k2 = _addr_of(node_mask)
        state = view.native_state = (edge_dead, node_dead, (k1, k2))
    return state


# -- backend interface ---------------------------------------------------------


def _out_row(out, n: int) -> tuple[array, array]:
    """The ``(dist, pred)`` arrays a kernel writes: *out*, or fresh ones."""
    if out is None:
        return array("d", bytes(8 * n)), array("q", bytes(8 * n))
    dist, pred = out
    if (
        not isinstance(dist, array) or dist.typecode != "d"
        or not isinstance(pred, array) or pred.typecode not in "lq"
        or len(dist) != n or len(pred) != n
    ):
        raise ValueError("out must be an array('d') and an array('q') of length n")
    return dist, pred


def dijkstra_canonical(
    view, source: int, targets: Optional[Iterable[int]] = None, out=None
):
    """Canonical Dijkstra rows — native at every size, targeted or not.

    With *out* (an ``array('d')``/``array('q')`` pair of length n) the
    row is written there and the arrays are returned; without it the
    row comes back as two fresh lists.
    """
    csr = view.csr
    n = csr.n
    indptr, indices, weights, _keep = _graph_ptrs(csr)
    edge_dead, node_dead, _vkeep = _view_ptrs(view)
    dist, pred = _out_row(out, n)
    if targets is None:
        t_addr, t_len = 0, -1
        t_arr = None
    else:
        t_arr = array("q", list(targets))
        t_addr = t_arr.buffer_info()[0] if len(t_arr) else 0
        t_len = len(t_arr)
    exhausted = _i64()
    relaxations = _i64()
    settled = _i64()
    _check(_LIB.repro_dijkstra(
        indptr, indices, weights, n, edge_dead, node_dead, source,
        t_addr, t_len, dist.buffer_info()[0], pred.buffer_info()[0],
        ctypes.byref(exhausted), ctypes.byref(relaxations),
        ctypes.byref(settled),
    ))
    del t_arr
    COUNTERS.csr_relaxations += relaxations.value
    COUNTERS.csr_settled += settled.value
    if out is None:
        return dist.tolist(), pred.tolist(), bool(exhausted.value)
    return dist, pred, bool(exhausted.value)


def bfs(view, source: int, target: int = -1, out=None):
    """Canonical index-ordered BFS with early target exit — native.

    *out* as for :func:`dijkstra_canonical`.
    """
    csr = view.csr
    n = csr.n
    indptr, indices, _weights, _keep = _graph_ptrs(csr)
    edge_dead, node_dead, _vkeep = _view_ptrs(view)
    dist, pred = _out_row(out, n)
    relaxations = _i64()
    settled = _i64()
    _check(_LIB.repro_bfs(
        indptr, indices, n, edge_dead, node_dead, source, target,
        dist.buffer_info()[0], pred.buffer_info()[0],
        ctypes.byref(relaxations), ctypes.byref(settled),
    ))
    COUNTERS.csr_relaxations += relaxations.value
    COUNTERS.csr_settled += settled.value
    if out is None:
        return dist.tolist(), pred.tolist()
    return dist, pred


_ROWS_SCRATCH: dict[int, tuple[array, array]] = {}


def _rows_scratch(entries: int) -> tuple[array, array]:
    """Reusable per-chunk output blocks (the kernel overwrites every
    entry of each requested row, so stale contents are never read).
    Keyed by size, capped at one cached pair — chunk sizes repeat."""
    cached = _ROWS_SCRATCH.get(entries)
    if cached is None:
        cached = (array("d", bytes(8 * entries)), array("q", bytes(8 * entries)))
        _ROWS_SCRATCH.clear()
        _ROWS_SCRATCH[entries] = cached
    return cached


def rows_many(
    view, sources: list[int], unit: bool
) -> dict[int, tuple[list[float], list[int]]]:
    """Batched exhaustive rows, one C call per source chunk.

    Equivalent to the caller's per-source reference loop (same per-row
    algorithm, counters summed instead of flushed per source), directed
    snapshots included.
    """
    out: dict[int, tuple[list[float], list[int]]] = {}
    if not sources:
        return out
    csr = view.csr
    n = csr.n
    indptr, indices, weights, _keep = _graph_ptrs(csr)
    edge_dead, node_dead, _vkeep = _view_ptrs(view)
    srcs = list(sources)
    block = min(len(srcs), ROWS_CHUNK)
    dist_block, pred_block = _rows_scratch(n * block)
    dist_mv = memoryview(dist_block)
    pred_mv = memoryview(pred_block)
    relaxations = _i64()
    settled = _i64()
    total_relax = 0
    total_settled = 0
    for lo in range(0, len(srcs), block):
        chunk = srcs[lo:lo + block]
        chunk_arr = array("q", chunk)
        _check(_LIB.repro_rows_many(
            indptr, indices, weights, n, edge_dead, node_dead,
            chunk_arr.buffer_info()[0], len(chunk), 1 if unit else 0,
            dist_block.buffer_info()[0], pred_block.buffer_info()[0],
            ctypes.byref(relaxations), ctypes.byref(settled),
        ))
        total_relax += relaxations.value
        total_settled += settled.value
        for k, src in enumerate(chunk):
            out[src] = (
                dist_mv[k * n:(k + 1) * n].tolist(),
                pred_mv[k * n:(k + 1) * n].tolist(),
            )
    COUNTERS.csr_relaxations += total_relax
    COUNTERS.csr_settled += total_settled
    return out


class _PyBuffer(ctypes.Structure):
    """CPython's ``Py_buffer``: how a read-only row's address is read."""

    _fields_ = [
        ("buf", ctypes.c_void_p),
        ("obj", ctypes.c_void_p),
        ("len", ctypes.c_ssize_t),
        ("itemsize", ctypes.c_ssize_t),
        ("readonly", ctypes.c_int),
        ("ndim", ctypes.c_int),
        ("format", ctypes.c_char_p),
        ("shape", ctypes.c_void_p),
        ("strides", ctypes.c_void_p),
        ("suboffsets", ctypes.c_void_p),
        ("internal", ctypes.c_void_p),
    ]


_get_buffer = ctypes.pythonapi.PyObject_GetBuffer
_get_buffer.argtypes = [ctypes.py_object, ctypes.POINTER(_PyBuffer), ctypes.c_int]
_get_buffer.restype = ctypes.c_int
_release_buffer = ctypes.pythonapi.PyBuffer_Release
_release_buffer.argtypes = [ctypes.POINTER(_PyBuffer)]
_release_buffer.restype = None

#: ``PyBUF_FORMAT | PyBUF_ND``: the export reports its item format and
#: shape, and is C-contiguous (or the exporter raises ``BufferError``).
_PYBUF_FORMAT_ND = 0x0004 | 0x0008
_TYPECODES = {"d": "d", "q": "ql"}
_FORMATS = {"d": (b"d",), "q": (b"q", b"l")}


class _Reads:
    """Addresses of buffers a kernel only reads, valid for one call.

    ``array`` buffers are read at their own address; lists are copied
    to an ``array``; anything else — the read-only shared-memory views
    of adopted ``RROW`` rows included — is read in place through a
    buffer export held until :meth:`release`.
    """

    __slots__ = ("copies", "exports")

    def __init__(self) -> None:
        self.copies: list[array] = []
        self.exports: list[_PyBuffer] = []

    def addr(self, buf, typecode: str, length: int = -1) -> int:
        """Address of *buf* as *typecode* items (*length* of them, if >= 0)."""
        if isinstance(buf, list):
            buf = array(typecode, buf)
            self.copies.append(buf)
        if isinstance(buf, array):
            if buf.typecode not in _TYPECODES[typecode]:
                raise TypeError(f"expected a {typecode!r} buffer")
            if 0 <= length != len(buf):
                raise ValueError(f"expected {length} items, got {len(buf)}")
            return buf.buffer_info()[0]
        export = _PyBuffer()
        _get_buffer(buf, export, _PYBUF_FORMAT_ND)  # BufferError if strided
        self.exports.append(export)
        if export.format not in _FORMATS[typecode]:
            raise TypeError(f"expected a {typecode!r} buffer")
        if 0 <= length != export.len // 8:
            raise ValueError(f"expected {length} items, got {export.len // 8}")
        return export.buf

    def release(self) -> None:
        for export in self.exports:
            _release_buffer(export)
        self.exports.clear()


def preorder(pred, root: int) -> tuple[array, array, array]:
    """``(order, pos, size)`` of the tree *pred* hangs below *root* — native.

    Same contract and same ``order`` as the reference loop; *pred* is
    read in place (adopted read-only rows included).
    """
    n = len(pred)
    if not 0 <= root < n:
        raise IndexError(f"root {root} outside a row of {n} nodes")
    order = array("q", bytes(8 * n))
    pos = array("q", bytes(8 * n))
    size = array("q", bytes(8 * n))
    length = _i64()
    reads = _Reads()
    try:
        status = _LIB.repro_preorder(
            reads.addr(pred, "q", n), n, root, order.buffer_info()[0],
            pos.buffer_info()[0], size.buffer_info()[0], ctypes.byref(length),
        )
    finally:
        reads.release()
    if status == -5:
        raise ValueError("pred is not a tree: a cycle runs through the root")
    _check(status)
    del order[length.value:]
    return order, pos, size


def repair_resettle(
    view, source: int, dist, pred, order, spans, unit: bool, out=None
) -> tuple[array, array]:
    """Ramalingam–Reps re-settle — native at every affected-set size.

    The pre-failure row is read in place; the region (preorder slices
    ``order[spans[2k]:spans[2k + 1]]``) is blanked and re-settled in
    the *out* arrays (fresh ones when ``None``), which are returned.
    """
    csr = view.csr
    n = csr.n
    indptr, indices, weights, _keep = _graph_ptrs(csr)
    edge_dead, node_dead, _vkeep = _view_ptrs(view)
    new_dist, new_pred = _out_row(out, n)
    n_order = len(order)
    for k in range(0, len(spans), 2):
        if not 0 <= spans[k] <= spans[k + 1] <= n_order:
            raise IndexError(f"span {spans[k]}:{spans[k + 1]} outside the preorder")
    relaxations = _i64()
    settled = _i64()
    reads = _Reads()
    try:
        status = _LIB.repro_repair(
            indptr, indices, weights, n, edge_dead, node_dead,
            reads.addr(dist, "d", n), reads.addr(pred, "q", n),
            reads.addr(order, "q"), reads.addr(spans, "q"), len(spans) // 2,
            1 if unit else 0, new_dist.buffer_info()[0],
            new_pred.buffer_info()[0], ctypes.byref(relaxations),
            ctypes.byref(settled),
        )
    finally:
        reads.release()
    _check(status)
    COUNTERS.spt_nodes_resettled += settled.value
    COUNTERS.csr_relaxations += relaxations.value
    return new_dist, new_pred


def decompose_flat(q, d, offsets, rows) -> tuple[array, array, int]:
    """Min-pieces DP over a batch of chains — one crossing, no callbacks.

    Same contract as the reference entry (flat *q*/*d* chains and
    prefix sums cut by *offsets*, ``rows[v]`` the dist row of node
    *v*).  The C DP reads ``rows[chain[j]][chain[i]]`` straight from
    the rows' own memory: ``array('d')`` rows by address, and any other
    float64 buffer — read-only shared-memory views of adopted ``RROW``
    rows included — in place through a buffer export held only until
    the call returns.  List rows are copied to float64 per call; the
    ILM accountant hands over the oracle's buffers instead
    (``LazyDistanceOracle.dist_buffer``).  Node indices outside the
    row table or beyond a row's length raise ``IndexError``, a missing
    row the DP needs raises ``KeyError``.
    """
    from ..graph.shortest_paths import EPSILON

    q_arr = q if isinstance(q, array) and q.typecode == "q" else array("q", q)
    d_arr = d if isinstance(d, array) and d.typecode == "d" else array("d", d)
    off = (
        offsets if isinstance(offsets, array) and offsets.typecode == "q"
        else array("q", offsets)
    )
    total = len(q_arr)
    if len(d_arr) != total or not off:
        raise ValueError("decompose_flat: q, d and offsets disagree")
    best = array("q", bytes(8 * total))
    choice = array("q", bytes(8 * total))
    nrows = max(rows) + 1 if rows else 0
    table = array("q", bytes(8 * max(nrows, 1)))
    width = 1 << 62  # no rows: nothing is read, so no node bound applies
    reads = _Reads()
    try:
        for v, row in rows.items():
            table[v] = reads.addr(row, "d")
            width = min(width, len(row))
        probes = _i64()
        bad = _i64()
        status = _LIB.repro_decompose_many(
            len(off) - 1, off.buffer_info()[0], q_arr.buffer_info()[0],
            d_arr.buffer_info()[0], total, table.buffer_info()[0], nrows,
            width, float(EPSILON), best.buffer_info()[0],
            choice.buffer_info()[0], ctypes.byref(probes), ctypes.byref(bad),
        )
    finally:
        reads.release()
    if status == -2:
        raise KeyError(q_arr[bad.value])
    if status == -3:
        raise IndexError(f"chain node {q_arr[bad.value]} outside the row table")
    if status == -4:
        raise ValueError(f"decompose_flat: offsets[{bad.value}] out of order")
    _check(status)
    return best, choice, probes.value
