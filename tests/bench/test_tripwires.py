"""Tripwires for what this tree deleted: ``repro.bench``, the best-pair
estimators, the tracked ``benchmarks/results.txt``, the sync server's
per-link delivery counters and HELLO capability negotiation, the
row copies a mirror and a rollback made of images they can share, the
one-element ``{tid}`` set a hash index kept per key, the sync client's
liveness monitor and reconnector threads, and the sync server's knobs
nobody set, the IVM dispatch module with its per-row folds and their
size switch, the second and third aggregate group states (the row
engine's, IVM's, and the batch engine's state lists), and the per-row
objects of the Figure-8 screen (a ``VisualItem`` per displayed row, a
``(row id, tid)`` tuple per cached item, a ``(key, tid)`` tuple per
sorted-index entry), and the mirror's bookkeeping from before it held
only committed images (pending writes, the echo scan, the one-row upsert,
a fold per event), and what a stored row image held beside its columns
and tid (the update stamp, the creation stamp and its per-table sorted
index, VisualAttributes' surrogate ``id`` and the block id draw that
filled it), the VisualAttributes store's private ``obj_id -> tid`` cache
and the key tuple a composite hash index built per row, and the per-row
work of the Figure-8 read side (a lock per mirror read, a ``Table.get``
per pulled row, a sort of the table's row map), and the sync server's
per-connection send queue (a queued-frame object per client and
broadcast, a second enqueue path, a broadcast that walks its clients)
and its message-level drain for faulted links (``perturb``, a log that
keeps each frame's message, a connection's fault wrapper) and its
eviction of a slow client (a lag summed over the tables it mirrors, the
log groups that sum walked, a broadcast that retires a connection)
and its in-memory copy of the ConnectedUser table (``_ClientLink``
records in ``_links``), and the change log's nested statement per event,
its ``seq_no`` indexes and its sorted whole-log scans, and the Figure-8
pipeline's private timers (its steps are read from one trace), and the
bucket loops each aggregate fold kept of its own (one partition helper
serves them all); and for what the aggregate memo relies on: every write
into a column chunk re-stamps it, and the memo is keyed by stamps and row
counts, never by chunks."""

import ast
import re
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
BENCHES = sorted((REPO / "benchmarks").glob("bench_*.py"))
#: The second set of books (per-link delivery counters) and the second
#: dialect (capability negotiation) the notification plane once kept.
GONE_FROM_SYNC = re.compile(
    r"\b(notify_count|missed_count|peer_caps|CAP_BATCH|CAP_TRACE"
    r"|SUPPORTED_CAPS|server_caps)\b"
)

#: Where a row image is shared, not copied: a whole file, or one function.
SHARED_IMAGES = [
    ("src/repro/sync/memtable.py", None),
    ("src/repro/sync/client.py", "SyncClient.refresh"),
    ("src/repro/db/table.py", "Table.restore_row"),
]


def python_files():
    for top in ("src", "benchmarks", "tests", "examples"):
        yield from (REPO / top).rglob("*.py")


def test_nothing_imports_repro_bench_and_the_package_is_gone():
    assert not (REPO / "src" / "repro" / "bench").exists()
    offenders = []
    for path in python_files():
        text = path.read_text(encoding="utf-8")
        if "repro.bench" not in text and "import bench" not in text:
            continue  # nothing to parse for
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            if any(n == "repro.bench" or n.startswith("repro.bench.") for n in names):
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert not offenders


def test_no_bench_keeps_a_best_of_or_takes_a_minimum_over_ratios():
    """``min(p / b for b, p in pairs)`` keeps the luckiest pair: on two
    identical arms it reads a negative overhead.  The median lives in
    ``benchmarks/paired.py``, once."""
    assert len(BENCHES) == 18
    offenders = []
    for path in BENCHES:
        text = path.read_text(encoding="utf-8")
        if "_best_of" in text or "best_ratio" in text:
            offenders.append(f"{path.name}: best-of helper")
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "min"
                and any(
                    isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Div)
                    for arg in node.args
                    for inner in ast.walk(arg)
                )
            ):
                offenders.append(f"{path.name}:{node.lineno}: min() over a ratio")
    assert not offenders


def test_results_txt_is_ignored_and_untracked():
    ignored = (REPO / ".gitignore").read_text(encoding="utf-8").splitlines()
    assert "benchmarks/results.txt" in ignored
    if (REPO / ".git").exists():
        tracked = subprocess.run(
            ["git", "ls-files", "benchmarks/results.txt"],
            cwd=REPO, capture_output=True, text=True, timeout=30,
        )
        assert tracked.stdout.strip() == ""
    conftest = (REPO / "benchmarks" / "conftest.py").read_text(encoding="utf-8")
    assert "results.txt" not in conftest


def books_and_dialect(source):
    """``(line, name)`` of every deleted counter or capability name."""
    return [
        (number, match.group())
        for number, line in enumerate(source.splitlines(), 1)
        for match in GONE_FROM_SYNC.finditer(line)
    ]


def required_hello_args(source):
    """Parameters of ``def hello`` without a default (None: no hello)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "hello":
            args = node.args
            positional = args.posonlyargs + args.args
            required = positional[: len(positional) - len(args.defaults)]
            required += [
                arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is None
            ]
            return [arg.arg for arg in required]
    return None


def test_no_delivery_counter_or_capability_under_src():
    """The log plus each client's ``last_seq_no`` is the one record of
    what a client consumed, and every peer speaks one dialect."""
    offenders = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        for line, name in books_and_dialect(path.read_text(encoding="utf-8"))
    ]
    assert not offenders


def test_hello_takes_no_required_argument():
    """Both benchmark fleets handshake with a bare ``protocol.hello()``."""
    protocol = REPO / "src" / "repro" / "sync" / "protocol.py"
    assert required_hello_args(protocol.read_text(encoding="utf-8")) == []


def test_the_sync_tripwires_fire_on_planted_offenders():
    planted = (
        "def hello(caps):\n"
        "    link.notify_count += 1\n"
        "    return peer_caps(caps) & SUPPORTED_CAPS\n"
    )
    assert books_and_dialect(planted) == [
        (2, "notify_count"),
        (3, "peer_caps"),
        (3, "SUPPORTED_CAPS"),
    ]
    assert required_hello_args(planted) == ["caps"]
    assert required_hello_args("def hello(*, caps):\n    pass\n") == ["caps"]
    assert required_hello_args("def hello(caps=None):\n    pass\n") == []


def dict_calls(source, scope=None):
    """Lines of the ``dict(...)`` calls in ``source``, or only in the
    method ``scope`` (``"Class.method"``) when one is named."""
    tree = ast.parse(source)
    if scope is not None:
        cls, name = scope.split(".")
        (tree,) = [
            node
            for top in tree.body
            if isinstance(top, ast.ClassDef) and top.name == cls
            for node in top.body
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    ]


def test_no_row_copy_where_images_are_shared():
    """Rows are values: writers copy on write, so a mirror holds the
    table's own images and a rollback puts its before image back."""
    offenders = [
        f"{path}:{line}"
        for path, scope in SHARED_IMAGES
        for line in dict_calls((REPO / path).read_text(encoding="utf-8"), scope)
    ]
    assert not offenders


def test_the_row_copy_tripwire_fires_on_planted_offenders():
    planted = (
        "class Table:\n"
        "    def get(self, tid):\n"
        "        return dict(self.rows[tid])\n"
        "    def restore_row(self, row):\n"
        "        self.rows[row['t']] = stored = dict(row)\n"
        "        return {**stored}\n"
    )
    assert dict_calls(planted) == [3, 5]
    assert dict_calls(planted, "Table.restore_row") == [5]
    assert dict_calls(planted, "Table.get") == [3]


def one_element_sets(source):
    """Lines of the one-element set displays (``{tid}``) in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Set) and len(node.elts) == 1
    ]


def test_no_one_element_set_where_the_hash_index_files_tids():
    """A key maps to its tid; a set is built only once a key holds two.
    The whole module is read: ``HashIndex`` files tids through its
    module-level helpers."""
    source = (REPO / "src" / "repro" / "db" / "index.py").read_text(encoding="utf-8")
    assert one_element_sets(source) == []


def test_the_one_element_set_tripwire_fires_on_planted_offenders():
    planted = (
        "def _put(buckets, key, tid):\n"
        "    buckets[key] = {buckets[key], tid}\n"
        "class HashIndex:\n"
        "    def add(self, tid, key):\n"
        "        if key not in self.buckets:\n"
        "            self.buckets[key] = {tid}\n"
        "        return {tid for tid in self.buckets}, set(), {0}\n"
    )
    assert one_element_sets(planted) == [6, 7]


#: Where ``sync/client.py`` may start a thread: the rendezvous starts the
#: helper that runs the server's side and, once it is done, the accepted
#: stream's reader.
THREAD_SITES = {"_rendezvous"}
#: ``SyncServer`` values that became derived or module constants.
SERVER_CONSTANTS = {"heartbeat_timeout", "max_queue_bytes", "drain_timeout"}


def thread_starts_and_liveness_names(source):
    """``(functions constructing a threading.Thread, names defined that
    start with _monitor or are _reconnector)`` in ``source``."""
    starts, names = set(), set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            names.add(node.name)
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) == "Thread":
                starts.add(function)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    gone = {n for n in names if n.startswith("_monitor") or n == "_reconnector"}
    return starts, gone


def server_constant_params(source):
    """``SyncServer.__init__`` parameters that must stay constants."""
    return sorted(
        arg.arg
        for top in ast.parse(source).body
        if isinstance(top, ast.ClassDef) and top.name == "SyncServer"
        for node in top.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        for arg in node.args.args + node.args.kwonlyargs
        if arg.arg in SERVER_CONSTANTS
    )


def test_a_client_link_is_one_thread():
    """The reader owns the heartbeat deadline and the reconnect: no
    monitor thread, no reconnector thread."""
    source = (REPO / "src/repro/sync/client.py").read_text(encoding="utf-8")
    starts, gone = thread_starts_and_liveness_names(source)
    assert starts <= THREAD_SITES
    assert gone == set()


def test_the_server_knobs_nobody_set_stay_constants():
    source = (REPO / "src/repro/sync/server.py").read_text(encoding="utf-8")
    assert server_constant_params(source) == []


def test_the_link_thread_tripwires_fire_on_planted_offenders():
    planted = (
        "import threading\n"
        "from threading import Thread\n"
        "class SyncClient:\n"
        "    def _rendezvous(self):\n"
        "        threading.Thread(target=print).start()\n"
        "    def _ensure_monitor(self):\n"
        "        self._monitor = threading.Thread(target=self._monitor_loop)\n"
        "    def _connection_lost(self):\n"
        "        self._reconnector = Thread(target=print)\n"
        "class SyncServer:\n"
        "    def __init__(self, db, heartbeat_interval=0.5, *, drain_timeout=2.0,\n"
        "                 max_queue_bytes=1):\n"
        "        self.heartbeat_timeout = heartbeat_interval\n"
    )
    starts, gone = thread_starts_and_liveness_names(planted)
    assert starts - THREAD_SITES == {"_ensure_monitor", "_connection_lost"}
    assert gone == {"_monitor", "_reconnector"}
    assert server_constant_params(planted) == ["drain_timeout", "max_queue_bytes"]


def _subscript_targets(node):
    """Subscript targets of the assignments under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, ast.AugAssign):
            targets = [sub.target]
        else:
            continue
        yield from (t for t in targets if isinstance(t, ast.Subscript))


def _classes(source, name):
    return [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == name
    ]


def unstamped_chunk_writes(source):
    """``ColumnStore`` methods that write into a chunk column
    (``chunk[name][i] = v``) or the tombstone mask (``self._dead[ci] |=
    bit``) without re-stamping the chunk (``self._stamps[ci] = ...``)."""
    offenders = []
    for cls in _classes(source, "ColumnStore"):
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            bases = [
                (t, ast.unparse(t.value)) for t in _subscript_targets(fn)
            ]
            writes = [
                t for t, base in bases
                if isinstance(t.value, ast.Subscript) or base == "self._dead"
            ]
            if writes and not any(base == "self._stamps" for _, base in bases):
                offenders.append(fn.name)
    return offenders


def memo_keys(source):
    """The keys ``VAggregate`` files partials under in the dict it keeps
    as ``self._memo``, each local name resolved to what it was bound to."""
    keys = []
    for cls in _classes(source, "VAggregate"):
        bound = {
            node.targets[0].id: ast.unparse(node.value)
            for node in ast.walk(cls)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        }
        kept = {"self._memo"} | {
            ast.unparse(node.value)
            for node in ast.walk(cls)
            if isinstance(node, ast.Assign)
            and any(ast.unparse(t) == "self._memo" for t in node.targets)
        }
        for target in _subscript_targets(cls):
            if ast.unparse(target.value) in kept:
                key = ast.unparse(target.slice)
                keys.append(bound.get(key, key))
    return keys


#: What a memo key may be: a batch's chunk stamp, alone or with the rows
#: the batch held (the same stamp with more rows has the same first rows).
STAMP_KEYS = {"batch.origin", "(batch.origin, batch.n)"}


def test_every_chunk_write_re_stamps_and_the_memo_keeps_only_stamps():
    """A kept partial is as good as its chunk's stamp: a write that left
    the stamp alone would let a re-run merge a stale partial, and a memo
    keyed by chunks would pin them past a compaction."""
    db = REPO / "src" / "repro" / "db"
    columnar = (db / "columnar.py").read_text(encoding="utf-8")
    assert unstamped_chunk_writes(columnar) == []
    keys = memo_keys((db / "vector.py").read_text(encoding="utf-8"))
    assert keys and set(keys) <= STAMP_KEYS


def test_the_chunk_stamp_tripwires_fire_on_planted_offenders():
    planted = (
        "class ColumnStore:\n"
        "    def update(self, ci, offset, value):\n"
        "        self._chunks[ci]['x'][offset] = value\n"
        "    def delete(self, ci, offset):\n"
        "        self._dead[ci] |= 1 << offset\n"
        "    def fine(self, ci, offset, chunk):\n"
        "        chunk['x'][offset] = 0\n"
        "        self._stamps[ci] = 7\n"
        "class VAggregate:\n"
        "    def batches(self, batch, partial):\n"
        "        kept = {}\n"
        "        stamp = batch.origin\n"
        "        kept[stamp] = partial\n"
        "        kept[id(batch.columns)] = partial\n"
        "        key = (batch.origin, batch.n)\n"
        "        kept[key] = None\n"
        "        kept[(id(batch.columns), batch.n)] = partial\n"
        "        self._memo = kept\n"
        "        self._memo[batch] = partial\n"
    )
    assert unstamped_chunk_writes(planted) == ["update", "delete"]
    keys = memo_keys(planted)
    assert keys == [
        "batch.origin",
        "id(batch.columns)",
        "(batch.origin, batch.n)",
        "(id(batch.columns), batch.n)",
        "batch",
    ]
    assert [key for key in keys if key not in STAMP_KEYS] == [
        "id(batch.columns)", "(id(batch.columns), batch.n)", "batch"
    ]


def _appends_to_bucket(call, fetched):
    """``call`` appends to a per-key list: ``d[k].append``,
    ``d.setdefault(k, []).append``, or ``b.append`` where ``b`` was fetched
    by ``d.get``/``d.setdefault`` in the same loop (``fetched``)."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "append"):
        return False
    owner = call.func.value
    return (
        isinstance(owner, ast.Subscript)
        or isinstance(owner, ast.Name) and owner.id in fetched
        or isinstance(owner, ast.Call)
        and isinstance(owner.func, ast.Attribute)
        and owner.func.attr == "setdefault"
    )


def _catches_key_error(node):
    return isinstance(node, ast.Try) and any(
        handler.type is not None and "KeyError" in ast.unparse(handler.type)
        for handler in node.handlers
    )


def bucket_loops(source):
    """Functions that bucket items into per-key lists by a loop of their
    own (``get``/``setdefault`` then ``append``, or a call through a dict
    of bound ``append`` methods that catches ``KeyError``), or build a key
    tuple per row with ``tuple(row[g] for g in ...)``."""
    offenders = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        hit = False
        for loop in (n for n in ast.walk(fn) if isinstance(n, ast.For)):
            body = [n for stmt in loop.body for n in ast.walk(stmt)]
            fetched = {
                target.id
                for n in body
                if isinstance(n, ast.Assign)
                and isinstance(n.value, ast.Call)
                and isinstance(n.value.func, ast.Attribute)
                and n.value.func.attr in ("get", "setdefault")
                for target in n.targets
                if isinstance(target, ast.Name)
            }
            hit |= any(
                isinstance(n, ast.Call) and _appends_to_bucket(n, fetched)
                or _catches_key_error(n)
                and any(
                    isinstance(c, ast.Call) and isinstance(c.func, ast.Subscript)
                    for stmt in n.body
                    for c in ast.walk(stmt)
                )
                for n in body
            )
        for n in ast.walk(fn):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "tuple"
                and len(n.args) == 1
                and isinstance(n.args[0], ast.GeneratorExp)
            ):
                gen = n.args[0]
                targets = {ast.unparse(g.target) for g in gen.generators}
                hit |= (
                    isinstance(gen.elt, ast.Subscript)
                    and ast.unparse(gen.elt.slice) in targets
                )
        if hit:
            offenders.append(fn.name)
    return offenders


def test_every_aggregate_fold_partitions_through_the_one_helper():
    """The view's delta, the batch GROUP BY and the hash join's build side
    bucket rows through ``repro.db.aggstate.partition``, with a group key
    compiled once, not a bucket loop and a key tuple per row of their own."""
    sources = [REPO / "src" / "repro" / "db" / "vector.py"]
    sources += sorted((REPO / "src" / "repro" / "ivm").glob("*.py"))
    for path in sources:
        assert bucket_loops(path.read_text(encoding="utf-8")) == [], path.name


def test_the_bucket_loop_tripwire_fires_on_planted_offenders():
    planted = (
        "def by_get(keys, values):\n"
        "    groups = {}\n"
        "    for key, value in zip(keys, values):\n"
        "        bucket = groups.get(key)\n"
        "        if bucket is None:\n"
        "            groups[key] = [value]\n"
        "        else:\n"
        "            bucket.append(value)\n"
        "def by_key_error(keys, values):\n"
        "    buckets, appends = {}, {}\n"
        "    for key, value in zip(keys, values):\n"
        "        try:\n"
        "            appends[key](value)\n"
        "        except KeyError:\n"
        "            appends[key] = buckets.setdefault(key, [value]).append\n"
        "def by_setdefault(rows):\n"
        "    groups = {}\n"
        "    for row in rows:\n"
        "        groups.setdefault(row['g'], []).append(row)\n"
        "def by_subscript(rows, groups):\n"
        "    for row in rows:\n"
        "        groups[row['g']].append(row)\n"
        "def key_tuple(self, row):\n"
        "    return tuple(row[g] for g in self.group_by)\n"
        "def fine(rows, groups, out):\n"
        "    for row in rows:\n"
        "        entry = groups.get(row['g'])\n"
        "        out.append(entry)\n"
        "    return tuple(r.x for r in rows)\n"
    )
    assert bucket_loops(planted) == [
        "by_get", "by_key_error", "by_setdefault", "by_subscript", "key_tuple"
    ]


# ----------------------------------------------------------------------
# Plan once, bind many: a ``?`` is a slot in the plan, never a value
PLANNER = REPO / "src" / "repro" / "db" / "sql" / "planner.py"

#: Each argument ``_plan_time_value`` may evaluate while planning, with a
#: statement holding a ``?`` exactly there (which must not be cached).
PLAN_TIME_SITES = {
    "v": "SELECT * FROM t WHERE k IN (1, ?)",
    "stmt.limit": "SELECT * FROM t LIMIT ?",
    "stmt.offset": "SELECT * FROM t LIMIT 1 OFFSET ?",
    "trailing_limit": "SELECT k FROM t UNION SELECT k FROM t LIMIT ?",
    "trailing_offset": "SELECT k FROM t UNION SELECT k FROM t LIMIT 1 OFFSET ?",
}


def _mentions_params(node):
    return any(
        (isinstance(n, ast.Name) and n.id == "params")
        or (isinstance(n, ast.Attribute) and n.attr == "params")
        for n in ast.walk(node)
    )


def literals_from_params(source):
    """Lines that build a ``Literal`` from, or read a value out of, the
    parameter values."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        literal = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Literal"
            and _mentions_params(node)
        )
        if literal or (isinstance(node, ast.Subscript) and _mentions_params(node.value)):
            hits.append(node.lineno)
    return sorted(set(hits))


def plan_time_evaluations(source):
    """``.eval({})`` calls outside ``_plan_time_value``, and the arguments
    ``_plan_time_value`` is called with."""
    tree = ast.parse(source)
    helper = next(
        (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_plan_time_value"),
        None,
    )
    inside = {id(n) for n in ast.walk(helper)} if helper is not None else set()
    stray, sites = [], []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "eval"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Dict)
            and not node.args[0].keys
            and id(node) not in inside
        ):
            stray.append(node.lineno)
        if isinstance(func, ast.Name) and func.id == "_plan_time_value":
            sites.append(ast.unparse(node.args[0]))
    return stray, sites


def broad_handlers(source):
    """Lines of ``except:`` / ``except Exception`` handlers, and of
    ``except BaseException`` ones that neither re-raise nor store."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)} if node.type else set()
        if node.type is None or "Exception" in names:
            hits.append(node.lineno)
        elif "BaseException" in names:
            body = [n for stmt in node.body for n in ast.walk(stmt)]
            reraises = any(isinstance(n, ast.Raise) and n.exc is None for n in body)
            stores = node.name is not None and any(
                isinstance(n, ast.Name) and n.id == node.name and isinstance(n.ctx, ast.Load)
                for n in body
            )
            if not (reraises or stores):
                hits.append(node.lineno)
    return hits


def test_the_planner_bakes_no_parameter_into_the_plan():
    """A ``?`` in an expression lowers to a ``Param`` slot: a plan that
    held a bound value as a ``Literal`` could not be cached."""
    assert literals_from_params(PLANNER.read_text(encoding="utf-8")) == []


def test_every_plan_time_value_is_one_the_plan_cache_refuses():
    from repro.db.plancache import plan_cachable
    from repro.db.sql.parser import parse

    stray, sites = plan_time_evaluations(PLANNER.read_text(encoding="utf-8"))
    assert stray == []
    assert sites and set(sites) <= set(PLAN_TIME_SITES)
    for sql in PLAN_TIME_SITES.values():
        assert not plan_cachable(parse(sql)), sql


def test_the_db_package_swallows_no_exception_wholesale():
    """A broken catalog must surface, not become a full scan: no bare or
    ``Exception``-wide handler under ``src/repro/db``."""
    offenders = []
    for path in sorted((REPO / "src" / "repro" / "db").rglob("*.py")):
        for line in broad_handlers(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(REPO)}:{line}")
    assert offenders == []


def test_the_plan_once_tripwires_fire_on_planted_offenders():
    planted = (
        "def lower_expr(expr, scope):\n"
        "    if isinstance(expr, SqlParam):\n"
        "        return Literal(scope.params[expr.index])\n"
        "    value = scope.params[0]\n"
        "def _plan_time_value(expr, scope):\n"
        "    return lower_expr(expr, scope).eval({})\n"
        "def plan(stmt, scope):\n"
        "    where = lower_expr(stmt.where, scope).eval({})\n"
        "    count = _plan_time_value(stmt.limit, scope)\n"
        "    having = _plan_time_value(stmt.having, scope)\n"
    )
    assert literals_from_params(planted) == [3, 4]
    stray, sites = plan_time_evaluations(planted)
    assert stray == [8]
    assert sites == ["stmt.limit", "stmt.having"]
    assert not set(sites) <= set(PLAN_TIME_SITES)
    handlers = (
        "try:\n    a()\nexcept Exception:\n    pass\n"
        "try:\n    a()\nexcept:\n    pass\n"
        "try:\n    a()\nexcept (KeyError, Exception):\n    pass\n"
        "try:\n    a()\nexcept BaseException:\n    cleanup()\n"
        "try:\n    a()\nexcept BaseException:\n    cleanup()\n    raise\n"
        "try:\n    a()\nexcept BaseException as exc:\n    self.error = exc\n"
        "try:\n    a()\nexcept UnknownTableError:\n    pass\n"
    )
    assert broad_handlers(handlers) == [3, 7, 11, 15]


IVM = REPO / "src" / "repro" / "ivm"


def maintenance_module(root):
    """The path of the IVM dispatch module under ``root``, if it exists."""
    path = root / "src" / "repro" / "ivm" / "maintenance.py"
    return path if path.exists() else None


def delta_size_switches(source):
    """Lines comparing ``len(...)`` of a delta, or naming a ``*_MIN``
    constant: a size switch between two folds."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id.endswith("_MIN"):
            hits.append(node.lineno)
        elif isinstance(node, ast.Compare):
            for side in [node.left, *node.comparators]:
                if (
                    isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Name)
                    and side.func.id == "len"
                    and "delta" in ast.unparse(side.args[0]).lower()
                ):
                    hits.append(node.lineno)
    return sorted(set(hits))


def recompute_definitions(source):
    """Lines of every ``def recompute`` in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "recompute"
    ]


def apply_row_body(source):
    """``AggregateView.apply_row``'s statements after its docstring."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and top.name == "AggregateView":
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and node.name == "apply_row":
                    body = node.body
                    if ast.get_docstring(node) is not None:
                        body = body[1:]
                    return [ast.unparse(stmt) for stmt in body]
    return None


def is_one_group_fold(body):
    """True when ``body`` is exactly one ``self.apply_group_rows(...)`` call."""
    return body is not None and len(body) == 1 and body[0].startswith("self.apply_group_rows(")


def test_a_view_has_one_fold_and_no_dispatch_module():
    """Each view shape folds a delta in its own ``apply``; there is no
    dispatch module, no per-row path and no size switch between the two."""
    assert maintenance_module(REPO) is None
    offenders = [
        f"{path.relative_to(REPO)}:{line}"
        for path in sorted(IVM.rglob("*.py"))
        for line in delta_size_switches(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_recompute_is_the_fold_over_the_whole_table():
    """One ``recompute`` (the base class's) and a per-row ``apply_row``
    that is only a one-row group fold."""
    source = (IVM / "view.py").read_text(encoding="utf-8")
    assert len(recompute_definitions(source)) == 1
    assert is_one_group_fold(apply_row_body(source))


def test_the_one_fold_tripwires_fire_on_planted_offenders(tmp_path):
    planted = tmp_path / "src" / "repro" / "ivm" / "maintenance.py"
    planted.parent.mkdir(parents=True)
    planted.write_text("def apply_delta(view, delta):\n    pass\n", encoding="utf-8")
    assert maintenance_module(tmp_path) == planted
    switches = (
        "_BATCH_MIN = 64\n"
        "def apply(view, delta):\n"
        "    if len(delta) >= _BATCH_MIN:\n"
        "        return batch(view, delta)\n"
        "    if 8 < len(delta.inserted):\n"
        "        pass\n"
        "    if len(rows) > 1:\n"
        "        pass\n"
    )
    assert delta_size_switches(switches) == [1, 3, 5]
    views = (
        "class ViewDefinition:\n"
        "    def recompute(self, database):\n"
        "        pass\n"
        "class AggregateView(ViewDefinition):\n"
        "    def recompute(self, database):\n"
        "        pass\n"
        "    def apply_row(self, row, sign):\n"
        '        """Fold one row."""\n'
        "        key = self._group_key(row)\n"
        "        self.apply_group_rows(key, [row], sign)\n"
    )
    assert recompute_definitions(views) == [2, 5]
    assert apply_row_body(views) == [
        "key = self._group_key(row)",
        "self.apply_group_rows(key, [row], sign)",
    ]
    assert not is_one_group_fold(apply_row_body(views))
    assert not is_one_group_fold(["self.apply_delta(row, sign)"])
    assert is_one_group_fold(["self.apply_group_rows(self._group_key(row), [row], sign)"])


#: Names of the aggregate group-state copies that ``repro.db.aggstate``
#: replaced: the row engine's and IVM's state classes and the batch
#: engine's list-state plumbing.
GONE_AGG_STATES = {"_AggState", "_GroupState", "_accumulate", "_new_states"}


def second_agg_states(source):
    """``(line, name)`` of every class or function named like a deleted
    aggregate state."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in GONE_AGG_STATES
    )


def sum_kind_assignments(source):
    """Lines that assign ``MERGEABLE_SUM_KINDS`` (as a name or attribute)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(
            getattr(t, "id", None) == "MERGEABLE_SUM_KINDS"
            or getattr(t, "attr", None) == "MERGEABLE_SUM_KINDS"
            for t in targets
        ):
            hits.append(node.lineno)
    return sorted(hits)


def test_one_aggregate_state_and_one_exactness_rule():
    """The row engine, the batch engine and IVM views fold through
    ``repro.db.aggstate``; its exactness rule is set there and only there."""
    sources = {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
    }
    offenders = [
        f"{name}:{line}: {found}"
        for name, text in sources.items()
        for line, found in second_agg_states(text)
    ]
    assert offenders == []
    assigning = [name for name, text in sources.items() if sum_kind_assignments(text)]
    assert assigning == ["src/repro/db/aggstate.py"]


def test_the_aggregate_state_tripwires_fire_on_planted_offenders():
    planted = (
        "MERGEABLE_SUM_KINDS = 7\n"
        "class _AggState:\n"
        "    pass\n"
        "class VAggregate:\n"
        "    def _new_states(self):\n"
        "        vector.MERGEABLE_SUM_KINDS: int = 3\n"
        "    def _accumulate(self, state):\n"
        "        kinds = MERGEABLE_SUM_KINDS\n"
        "class _GroupState:\n"
        "    MERGEABLE_SUM_KINDS |= 1\n"
    )
    assert second_agg_states(planted) == [
        (2, "_AggState"),
        (5, "_new_states"),
        (7, "_accumulate"),
        (9, "_GroupState"),
    ]
    assert sum_kind_assignments(planted) == [1, 6, 10]
    fine = "from .aggstate import MERGEABLE_SUM_KINDS\ndef merge(self, part):\n    pass\n"
    assert second_agg_states(fine) == [] and sum_kind_assignments(fine) == []


VIS = REPO / "src" / "repro" / "vis"


def method_bodies(source, class_name):
    """``{method name: FunctionDef}`` of one class in ``source``."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and top.name == class_name:
            return {n.name: n for n in top.body if isinstance(n, ast.FunctionDef)}
    return {}


def item_builders_under_apply_rows(source):
    """Lines naming ``VisualItem`` or ``from_row`` in ``Display.apply_rows``
    or in any ``Display`` method it reaches through ``self.<method>(...)``."""
    methods = method_bodies(source, "Display")
    todo, seen, hits = ["apply_rows"], set(), []
    while todo:
        name = todo.pop()
        if name in seen or name not in methods:
            continue
        seen.add(name)
        for node in ast.walk(methods[name]):
            if isinstance(node, ast.Name) and node.id == "VisualItem":
                hits.append(node.lineno)
            elif isinstance(node, ast.Attribute):
                if node.attr == "from_row":
                    hits.append(node.lineno)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    todo.append(node.attr)
    return sorted(set(hits))


def pair_lists_in_index(source):
    """Lines of ``src/repro/db/index.py`` naming the ``(key, tid)`` pair list."""
    return [n for n, line in enumerate(source.splitlines(), 1) if "_entries" in line]


def tuples_in_cache_fill(source):
    """Lines of ``VisualAttributesStore._upsert``, which issues a batch's
    insert and update statements, that build a tuple or loop per item (the
    ``obj_id -> tid`` cache it once filled there did both)."""
    upsert = method_bodies(source, "VisualAttributesStore").get("_upsert")
    if upsert is None:
        return []
    return sorted(
        node.lineno
        for statement in upsert.body
        for node in ast.walk(statement)
        if (isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.For)
    )


def test_the_figure8_screen_builds_no_per_row_object():
    """The display holds the rows it is given, the store keeps nothing
    per item (the table's key index maps an item to its tid), and a sorted
    index is two flat lists."""
    display = (VIS / "display.py").read_text(encoding="utf-8")
    assert "apply_rows" in method_bodies(display, "Display")
    assert item_builders_under_apply_rows(display) == []
    index = (REPO / "src" / "repro" / "db" / "index.py").read_text(encoding="utf-8")
    assert pair_lists_in_index(index) == []
    attributes = (VIS / "attributes.py").read_text(encoding="utf-8")
    assert "_upsert" in method_bodies(attributes, "VisualAttributesStore")
    assert tuples_in_cache_fill(attributes) == []


def test_the_figure8_screen_tripwires_fire_on_planted_offenders():
    # The parent's Display: apply_rows converted every row to an item.
    parent_display = (
        "class Display:\n"
        "    def apply_rows(self, rows):\n"
        "        with OBS.span('vis.display.apply') as span:\n"
        "            count = self.apply_items(map(VisualItem.from_row, rows))\n"
        "        return count\n"
    )
    assert item_builders_under_apply_rows(parent_display) == [4]
    # An item built one call away from apply_rows is found too.
    indirect = (
        "class Display:\n"
        "    def apply_rows(self, rows):\n"
        "        return self._fold(rows)\n"
        "    def _fold(self, rows):\n"
        "        self._rows.update((r['obj_id'], VisualItem(**r)) for r in rows)\n"
        "    def render(self):\n"
        "        return VisualItem.from_row(self._rows[0])\n"
    )
    assert item_builders_under_apply_rows(indirect) == [5]
    parent_index = (
        "class SortedIndex:\n"
        "    def __init__(self, table_name, column):\n"
        "        self._entries: list[tuple[Any, int]] = []\n"
    )
    assert pair_lists_in_index(parent_index) == [3]
    parent_store = (
        "class VisualAttributesStore:\n"
        "    def _upsert(self, component_id, fresh, moved: dict[int, dict]):\n"
        "        existing = self._index(component_id)\n"
        "        for item, row in zip(fresh, stored):\n"
        "            existing[item.obj_id] = (row['id'], row[TID])\n"
    )
    assert tuples_in_cache_fill(parent_store) == [4, 5]
    one_pass = (
        "class VisualAttributesStore:\n"
        "    def _upsert(self, component_id, fresh, moved):\n"
        "        self._index(component_id).update((i.obj_id, r[TID]) for i, r in pairs)\n"
    )
    assert tuples_in_cache_fill(one_pass) == [3]


SYNC = REPO / "src" / "repro" / "sync"
#: What a mirror kept before it held only images the table committed.
GONE_FROM_MIRROR = re.compile(r"\b(_pending_writes|stage_write|_is_own_echo|_upsert_one)\b")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def mirror_bookkeeping(source):
    """Lines of ``source`` naming the mirror's pending-write bookkeeping."""
    return [n for n, line in enumerate(source.splitlines(), 1) if GONE_FROM_MIRROR.search(line)]


def refresh_applies(source):
    """Lines of the ``apply_batch`` calls in ``SyncClient.refresh``, and
    the lines of those inside a loop."""
    refresh = method_bodies(source, "SyncClient").get("refresh")
    if refresh is None:
        return [], []

    def applies(node):
        return {
            n.lineno
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "apply_batch"
        }

    looped = set()
    for node in ast.walk(refresh):
        if isinstance(node, LOOPS):
            looped |= applies(node)
    return sorted(applies(refresh)), sorted(looped)


def test_a_refresh_folds_once_and_the_mirror_keeps_no_pending_writes():
    for path in sorted(SYNC.glob("*.py")):
        assert mirror_bookkeeping(path.read_text(encoding="utf-8")) == [], path
    client = (SYNC / "client.py").read_text(encoding="utf-8")
    calls, looped = refresh_applies(client)
    assert len(calls) == 1
    assert looped == []


def test_the_one_fold_tripwires_fire_on_planted_offenders_and_the_old_mirror():
    # The former refresh: one apply_batch per event, in seq order.
    per_event = (
        "class SyncClient:\n"
        "    def refresh(self, table, full=False):\n"
        "        with self._refresh_lock(table):\n"
        "            for tids, rows in pulled:\n"
        "                memtable.apply_batch(upserts, deletes)\n"
    )
    assert refresh_applies(per_event) == ([5], [5])
    twice = (
        "class SyncClient:\n"
        "    def refresh(self, table, full=False):\n"
        "        memtable.apply_batch(upserts, [])\n"
        "        memtable.apply_batch([], deletes)\n"
    )
    assert refresh_applies(twice) == ([3, 4], [])
    in_a_comprehension = (
        "class SyncClient:\n"
        "    def refresh(self, table, full=False):\n"
        "        [memtable.apply_batch([row], []) for row in rows]\n"
    )
    assert refresh_applies(in_a_comprehension) == ([3], [3])
    # The former mirror and write-back.
    old_mirror = (
        "class MemoryTable:\n"
        "    def __init__(self, table):\n"
        "        self._pending_writes: dict[tuple[int, str], Any] = {}\n"
        "    def apply_batch(self, upserts, deletes):\n"
        "        if len(upserts) == 1:\n"
        "            self._upsert_one(upserts[0])\n"
        "    def _is_own_echo(self, tid, image):\n"
        "        return False\n"
        "    def stage_write(self, tid, column, value):\n"
        "        pass\n"
        "class SyncClient:\n"
        "    def write_back(self, table, tid, column, value):\n"
        "        memtable.stage_write(tid, column, value)\n"
    )
    assert mirror_bookkeeping(old_mirror) == [3, 6, 7, 9, 13]


#: What a row image carried beside its columns and tid, and the index
#: that re-sorted one of them: none of it is named under ``src/`` again.
GONE_STAMPS = re.compile(r"\b(UPDATED_AT|__updated__|_created_index)\b")


def stamp_names(source):
    """Lines of ``source`` naming the update stamp or the creation index."""
    return [n for n, line in enumerate(source.splitlines(), 1) if GONE_STAMPS.search(line)]


def image_keys(source):
    """The constant keys ``source`` assigns by subscript (``row[TID] =``,
    ``row["x"] =``): a name in capitals or a string.  Lower-case names are
    map keys (``self._rows[tid] = row``), not image keys."""
    keys = []
    for node in ast.walk(ast.parse(source)):
        targets = node.targets if isinstance(node, ast.Assign) else []
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            key = target.slice
            if isinstance(key, ast.Name) and key.id.isupper():
                keys.append(key.id)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.append(key.value)
    return keys


def visual_attributes_schema(source):
    """``(column names, primary key)`` of the ``T_VISUAL_ATTRIBUTES``
    table ``source`` declares, or None."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "T_VISUAL_ATTRIBUTES"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.List)
        ):
            names = [
                column.args[0].value
                for column in node.args[1].elts
                if isinstance(column, ast.Call) and column.args
            ]
            keys = [kw.value.value for kw in node.keywords if kw.arg == "primary_key"]
            return names, keys[0] if keys else None
    return None


def test_a_stored_row_is_its_columns_and_its_tid():
    src = REPO / "src"
    offenders = [
        f"{path.relative_to(REPO)}:{line}"
        for path in sorted(src.rglob("*.py"))
        for line in stamp_names(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    table = (src / "repro" / "db" / "table.py").read_text(encoding="utf-8")
    assert image_keys(table) == ["TID", "TID"]  # insert and insert_many


def test_visual_attributes_has_no_surrogate_id_and_no_block_draw():
    datamodel = (REPO / "src" / "repro" / "core" / "datamodel.py").read_text(encoding="utf-8")
    names, key = visual_attributes_schema(datamodel)
    assert "id" not in names and key is None
    assert names[:2] == ["component_id", "obj_id"]
    assert "next_ids" not in method_bodies(datamodel, "IdAllocator")
    assert "next_id" in method_bodies(datamodel, "IdAllocator")


def test_the_row_image_tripwires_fire_on_planted_offenders():
    planted = (
        "from .schema import CREATED_AT, TID, UPDATED_AT\n"
        "class Table:\n"
        "    def insert(self, row):\n"
        "        self._rows[tid] = row\n"
        "        row[TID] = tid\n"
        "        row[CREATED_AT] = row['__updated__'] = now\n"
        "        self._created_index.add(tid, row)\n"
    )
    assert stamp_names(planted) == [1, 6, 7]
    assert image_keys(planted) == ["TID", "CREATED_AT", "__updated__"]
    old_schema = (
        "def install_core_schema(database):\n"
        "    mk(\n"
        "        T_VISUAL_ATTRIBUTES,\n"
        "        [Column('id', INTEGER, nullable=False), Column('component_id', INTEGER)],\n"
        "        primary_key='id',\n"
        "    )\n"
        "class IdAllocator:\n"
        "    def next_id(self, table):\n"
        "        pass\n"
        "    def next_ids(self, table, n):\n"
        "        pass\n"
    )
    assert visual_attributes_schema(old_schema) == (["id", "component_id"], "id")
    assert "next_ids" in method_bodies(old_schema, "IdAllocator")


#: The VisualAttributes store's private ``obj_id -> tid`` cache and the
#: methods that filled and checked it; the table's key index replaced them.
GONE_FROM_STORE = re.compile(r"\b(_cache\b|_index\(|_tid\()")
#: ``HashIndex`` methods that file or check one statement's rows.
STATEMENT_PATHS = ("add_many", "remove_many", "first_violation")


def store_cache_names(source):
    """Lines of ``source`` naming the store's former cache."""
    return [n for n, line in enumerate(source.splitlines(), 1) if GONE_FROM_STORE.search(line)]


def key_tuples_per_row(source):
    """Lines where ``HashIndex``'s statement paths -- or a ``self.<method>``
    they reach -- call ``tuple()`` or build a tuple inside a loop."""
    methods = method_bodies(source, "HashIndex")
    todo, seen, hits = list(STATEMENT_PATHS), set(), set()

    def visit(node, looped):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "tuple":
                hits.add(node.lineno)
        elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load) and looped:
            hits.add(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "self":
                todo.append(node.attr)
        looped = looped or isinstance(node, LOOPS)
        for child in ast.iter_child_nodes(node):
            visit(child, looped)

    while todo:
        name = todo.pop()
        if name in seen or name not in methods:
            continue
        seen.add(name)
        visit(methods[name], False)
    return sorted(hits)


def test_the_store_keeps_no_tid_cache_and_the_index_no_per_row_key():
    attributes = (VIS / "attributes.py").read_text(encoding="utf-8")
    assert store_cache_names(attributes) == []
    index = (REPO / "src" / "repro" / "db" / "index.py").read_text(encoding="utf-8")
    assert set(STATEMENT_PATHS) <= set(method_bodies(index, "HashIndex"))
    assert key_tuples_per_row(index) == []


def test_the_key_tripwires_fire_on_planted_offenders():
    # The parent's store: a cache, filled lazily and checked per entry.
    parent_store = (
        "class VisualAttributesStore:\n"
        "    def __init__(self, database):\n"
        "        self._cache: dict[int, dict[Any, int]] = {}\n"
        "    def write(self, component_id, items):\n"
        "        existing = self._index(component_id)\n"
        "        tid = self._tid(existing, component_id, key)\n"
        "    def _tids(self, component_id):\n"
        "        return sorted(self.database.table(T).index(K).group(component_id))\n"
    )
    assert store_cache_names(parent_store) == [3, 5, 6]
    # The parent's composite key: one tuple per row, one call away from
    # add_many; and a pair built in first_violation's own comprehension.
    parent_index = (
        "class HashIndex:\n"
        "    def add_many(self, tids, rows):\n"
        "        for key, tid in zip(self._keys(rows), tids):\n"
        "            _put(self._buckets, key, tid)\n"
        "    def _keys(self, rows):\n"
        "        return [tuple([_key_of(row[c]) for c in self.columns]) for row in rows]\n"
        "    def first_violation(self, rows):\n"
        "        keys = [(row['a'], row['b']) for row in rows]\n"
        "        return (0, self._violation(keys[0]))\n"
        "    def lookup_tuple(self, values):\n"
        "        return self._tids(tuple(values))\n"
    )
    assert key_tuples_per_row(parent_index) == [6, 8]


def with_blocks(source, scope):
    """Lines of the ``with`` statements in the method ``scope``
    (``"Class.method"``) of ``source``."""
    cls, name = scope.split(".")
    method = method_bodies(source, cls).get(name)
    if method is None:
        return []
    return [node.lineno for node in ast.walk(method) if isinstance(node, ast.With)]


def mapped_gets(source):
    """Lines of ``SyncClient.refresh`` that ``map`` a ``.get`` over tids:
    one Python call per pulled row."""
    refresh = method_bodies(source, "SyncClient").get("refresh")
    if refresh is None:
        return []
    return sorted(
        node.lineno
        for node in ast.walk(refresh)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "map"
        and node.args
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "get"
    )


def sorted_row_maps(source):
    """Lines of ``source`` calling ``sorted(self._rows)``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
        and node.args
        and isinstance(node.args[0], ast.Attribute)
        and isinstance(node.args[0].value, ast.Name)
        and node.args[0].value.id == "self"
        and node.args[0].attr == "_rows"
    )


def test_the_figure8_read_side_does_no_per_row_work():
    """A mirror's one-key read takes no lock, a refresh reads its images
    through ``Table.images``, and the table's rows are a list in tid
    order: nothing sorts them."""
    memtable = (SYNC / "memtable.py").read_text(encoding="utf-8")
    assert "get" in method_bodies(memtable, "MemoryTable")
    assert with_blocks(memtable, "MemoryTable.get") == []
    assert with_blocks(memtable, "MemoryTable.apply_batch") != []  # writers lock
    client = (SYNC / "client.py").read_text(encoding="utf-8")
    assert "refresh" in method_bodies(client, "SyncClient")
    assert mapped_gets(client) == []
    table = (REPO / "src" / "repro" / "db" / "table.py").read_text(encoding="utf-8")
    assert sorted_row_maps(table) == []


def test_the_read_side_tripwires_fire_on_planted_offenders():
    # The parent's mirror read and refresh pull, and the parent's scans.
    parent_mirror = (
        "class MemoryTable:\n"
        "    def get(self, tid):\n"
        "        with self._lock:\n"
        "            return self.rows.get(tid)\n"
    )
    assert with_blocks(parent_mirror, "MemoryTable.get") == [3]
    parent_refresh = (
        "class SyncClient:\n"
        "    def refresh(self, table, full=False):\n"
        "        with self.database.lock:\n"
        "            upserts = list(map(base.get, tids))\n"
        "        fresh = map(self.table(table).get, tids)\n"
    )
    assert mapped_gets(parent_refresh) == [4, 5]
    parent_table = (
        "class Table:\n"
        "    def rows(self):\n"
        "        for tid in sorted(self._rows):\n"
        "            yield self._rows[tid]\n"
        "    def tids(self):\n"
        "        return sorted(self._rows)\n"
        "    def created(self):\n"
        "        return sorted(self.created)\n"
    )
    assert sorted_row_maps(parent_table) == [3, 6]


#: What the send side kept before one send log per table.
GONE_FROM_SERVER = {"_OutFrame", "_submit_frames", "_frames_for_conn"}


def broadcast_loops(source):
    """Lines of the loops and comprehensions in ``SyncServer.broadcast``."""
    method = method_bodies(source, "SyncServer").get("broadcast")
    if method is None:
        return []
    return sorted(n.lineno for n in ast.walk(method) if isinstance(n, LOOPS))


def send_queue_names(source):
    """Classes and functions ``source`` defines from the per-connection
    send queue."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and node.name in GONE_FROM_SERVER
    )


def test_a_broadcast_is_appended_once():
    """``broadcast`` appends to its table's send log and walks no client:
    the drain, the eviction scan and the subscriber list do that."""
    server = (SYNC / "server.py").read_text(encoding="utf-8")
    assert "broadcast" in method_bodies(server, "SyncServer")
    assert broadcast_loops(server) == []
    assert send_queue_names(server) == []


def test_the_send_log_tripwires_fire_on_planted_offenders():
    # The parent's broadcast, its queued frame and its enqueue path.
    parent = (
        "class _OutFrame:\n"
        "    pass\n"
        "class SyncServer:\n"
        "    def _submit_frames(self, conn, frames):\n"
        "        pass\n"
        "    def broadcast(self, table, events):\n"
        "        with self._lock:\n"
        "            endpoints = [\n"
        "                link.endpoint for link in self._links.values()\n"
        "            ]\n"
        "        for endpoint in endpoints:\n"
        "            conn = endpoint.conn\n"
    )
    assert broadcast_loops(parent) == [8, 11]
    assert send_queue_names(parent) == ["_OutFrame", "_submit_frames"]


#: What the message-level faulted drain used: names anywhere, attributes.
GONE_FAULT_NAMES = {"perturb", "take"}
GONE_FAULT_ATTRS = {"messages", "faults"}


def faulted_drain_lines(source):
    """Lines of ``source`` that name the message-level faulted drain, or
    ask a transport ``hasattr(..., "perturb")``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in GONE_FAULT_NAMES | GONE_FAULT_ATTRS:
                lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in GONE_FAULT_NAMES:
            lines.add(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name in GONE_FAULT_NAMES:
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr":
            if any(getattr(arg, "value", None) == "perturb" for arg in node.args):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_server_has_one_drain_path():
    """A fault plan acts on bytes at the socket: the server keeps no
    frame's message and drains a faulted link like any other."""
    server = (SYNC / "server.py").read_text(encoding="utf-8")
    assert faulted_drain_lines(server) == []


def test_the_one_drain_tripwire_fires_on_planted_offenders():
    # The parent's log read, wrapper detection and faulted branch.
    parent = (
        "class _SendLog:\n"
        "    def take(self, cursor):\n"
        "        return self.messages[i], self.ends[i]\n"
        "def _unwrap_transport(transport):\n"
        '    faults = transport if hasattr(transport, "perturb") else None\n'
        "class SyncServer:\n"
        "    def _pump_locked(self, conn):\n"
        "        if conn.faults is not None:\n"
        "            message, conn.cursors[log] = log.take(conn.cursors[log])\n"
        "            conn.stage(*conn.faults.perturb(message))\n"
    )
    assert faulted_drain_lines(parent) == [2, 3, 5, 8, 9, 10]


#: What evicting a slow client took: a lag summed over the tables it
#: mirrors, and the log groups that summation walked.
GONE_EVICTION_NAMES = {"_evict_laggards", "retained", "_regroup"}
#: What takes a connection out of service.
RETIRING = {"_conn_dead", "_detach_endpoint", "_retire_conn"}


def eviction_mechanism(source):
    """Names of the lag-eviction mechanism ``source`` defines, and
    ``"_SendLog.group"`` where the send log keeps a ``group`` slot."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name in GONE_EVICTION_NAMES:
                found.append(node.name)
        if isinstance(node, ast.ClassDef) and node.name == "_SendLog":
            slots = [
                elt.value
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)
                for elt in ast.walk(stmt.value)
                if isinstance(elt, ast.Constant)
            ]
            if "group" in slots:
                found.append("_SendLog.group")
    return sorted(found)


def broadcast_retirements(source):
    """Lines where ``SyncServer.broadcast``, or a method it calls under
    a test of ``self.max_queue_frames`` (the bound), names a call that
    takes a connection out of service."""
    methods = method_bodies(source, "SyncServer")
    broadcast = methods.get("broadcast")
    if broadcast is None:
        return []
    bodies = [broadcast]
    for node in ast.walk(broadcast):
        if isinstance(node, ast.If) and any(
            isinstance(n, ast.Attribute) and n.attr == "max_queue_frames"
            for n in ast.walk(node.test)
        ):
            for call in ast.walk(node):
                func = getattr(call, "func", None)
                if isinstance(func, ast.Attribute) and func.attr in methods:
                    bodies.append(methods[func.attr])
    return sorted(
        {
            n.lineno
            for body in bodies
            for n in ast.walk(body)
            if isinstance(n, ast.Attribute) and n.attr in RETIRING
        }
    )


def test_a_slow_client_collapses_and_is_never_retired_for_lag():
    """At the bound a broadcast moves cursors: it keeps no lag summed
    over a client's tables, no log groups, and retires no connection."""
    server = (SYNC / "server.py").read_text(encoding="utf-8")
    assert eviction_mechanism(server) == []
    assert broadcast_retirements(server) == []


def test_the_collapse_tripwires_fire_on_planted_offenders():
    # The parent's log group, its summation and the eviction at the bound.
    parent = (
        "class _SendLog:\n"
        "    __slots__ = ('lock', 'buf', 'subscribers', 'group', 'scheduled')\n"
        "    def retained(self):\n"
        "        return sum(len(log.ends) for log in self.group), 0\n"
        "def _regroup(logs):\n"
        "    pass\n"
        "class SyncServer:\n"
        "    def broadcast(self, table, events):\n"
        "        frames, nbytes = log.retained()\n"
        "        if frames > self.max_queue_frames or nbytes > MAX_QUEUE_BYTES:\n"
        "            self._evict_laggards(log)\n"
        "    def _evict_laggards(self, log):\n"
        "        for conn in log.subscribers:\n"
        "            frames, nbytes = conn.lag()\n"
        "            if frames > self.max_queue_frames:\n"
        "                self._note_eviction(conn.endpoint)\n"
        "                self._conn_dead(conn)\n"
    )
    assert eviction_mechanism(parent) == [
        "_SendLog.group", "_evict_laggards", "_regroup", "retained",
    ]
    assert broadcast_retirements(parent) == [17]


def registry_copies(source):
    """Lines where ``source`` defines ``_ClientLink`` or assigns or reads
    ``self._links``: a second record, beside the ConnectedUser table, of
    who mirrors what."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ClassDef) and node.name == "_ClientLink")
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "_links"
            and getattr(node.value, "id", None) == "self"
        )
    )


def test_the_connected_user_table_is_the_servers_one_registry():
    """Registering, unregistering, counting and evicting read the table,
    so a server restarted on a durable database sees its clients."""
    server = (SYNC / "server.py").read_text(encoding="utf-8")
    assert "unregister_client" in method_bodies(server, "SyncServer")
    assert registry_copies(server) == []


def test_the_registry_tripwire_fires_on_planted_offenders():
    # The parent's link record, its registry and register_client's line.
    parent = (
        "class _ClientLink:\n"
        "    connected_user_id: int\n"
        "class SyncServer:\n"
        "    def __init__(self):\n"
        "        self._links: dict[int, _ClientLink] = {}\n"
        "    def register_client(self, table, host, port, user_id=None):\n"
        "        with self._lock:\n"
        "            self._links[cu_id] = _ClientLink(cu_id, table, host, port, endpoint)\n"
        "    def client_count(self):\n"
        "        return len(self._links)\n"
    )
    assert registry_copies(parent) == [1, 5, 8, 10]


#: Writes that are statements (or index builds) of their own: the log's
#: rows are one append to the commit being made.
LOG_STATEMENTS = {"insert", "insert_many", "create_index"}
#: Whole-log passes: ``events_since`` and ``purge`` bisect the log.
LOG_PASSES = {"scan", "rows"}


def _reads_connected_users(node):
    """True for ``<...>.table(datamodel.T_CONNECTED_USER)``: the registry
    (one row per client), which the purge reads whole for its horizons."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "table"
        and any(getattr(arg, "attr", None) == "T_CONNECTED_USER" for arg in node.args)
    )


def change_log_statements_and_passes(source):
    """``(name, line)`` of each ``insert``/``insert_many``/``create_index``
    call anywhere in ``source``, and of each ``sorted(...)`` call and each
    ``.scan()``/``.rows()`` call not on the ConnectedUser table in
    ``NotificationCenter.events_since`` and ``NotificationCenter.purge``."""
    hits = [
        (node.func.attr, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in LOG_STATEMENTS
    ]
    methods = method_bodies(source, "NotificationCenter")
    for name in ("events_since", "purge"):
        for node in ast.walk(methods.get(name, ast.Module(body=[], type_ignores=[]))):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) == "sorted":
                hits.append(("sorted", node.lineno))
            elif getattr(node.func, "attr", None) in LOG_PASSES and not (
                _reads_connected_users(node.func.value)
            ):
                hits.append((node.func.attr, node.lineno))
    return sorted(hits, key=lambda hit: hit[1])


def test_the_change_log_is_one_append_and_is_bisected():
    """The center writes its log rows as one append to the commit, never
    as statements, builds no index on the log, and reads it by bisecting
    its tid order: no sort and no whole-log pass."""
    source = (SYNC / "notification.py").read_text(encoding="utf-8")
    assert "events_since" in method_bodies(source, "NotificationCenter")
    assert change_log_statements_and_passes(source) == []


def test_the_change_log_tripwire_fires_on_planted_offenders():
    # The parent's sorted index, its nested insert per event in _record,
    # its slice of that index and its sorted scan of the whole log.
    parent = (
        "class NotificationCenter:\n"
        "    def __init__(self, database):\n"
        "        log.create_index('ix_seq', ('seq_no',), sorted=True)\n"
        "    def _record(self, change, span):\n"
        "        for (op, seq_no), (_op, tids) in zip(events, groups):\n"
        "            self.database.insert(datamodel.T_NOTIFICATION, {'seq_no': 1})\n"
        "    def events_since(self, table, last_seq_no):\n"
        "        logged = list(index.range(last_seq_no, None, include_low=False))\n"
        "        return [row for row in log.rows() if row['seq_no'] > last_seq_no]\n"
        "    def purge(self):\n"
        "        for row in self.database.table(datamodel.T_CONNECTED_USER).scan():\n"
        "            pass\n"
        "        consumed = sorted(\n"
        "            row[TID]\n"
        "            for row in self.database.table(datamodel.T_NOTIFICATION).scan()\n"
        "        )\n"
    )
    assert change_log_statements_and_passes(parent) == [
        ("create_index", 3),
        ("insert", 6),
        ("rows", 9),
        ("sorted", 13),
        ("scan", 15),
    ]


# ----------------------------------------------------------------------
# The Figure-8 pipeline keeps no clock: its steps are its trace's spans


def clock_reads(source):
    """Lines of ``source`` that read a clock: a ``time.perf_counter`` or
    ``time.monotonic`` call (``_ns`` too), or an import from ``time``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and getattr(node.func.value, "id", None) == "time"
            and node.func.attr.startswith(("perf_counter", "monotonic"))
        )
        or (isinstance(node, ast.ImportFrom) and node.module == "time")
    )


def test_the_figure8_pipeline_reads_no_clock():
    source = (REPO / "benchmarks" / "fig8_pipeline.py").read_text(encoding="utf-8")
    assert "def run_batch" in source
    assert clock_reads(source) == []


def test_the_figure8_clock_tripwire_fires_on_planted_offenders():
    # The parent's run_batch: its _wait_dirty timer and step 1's.
    parent = (
        "import time\n"
        "class InsertPipeline:\n"
        "    def _wait_dirty(self, client, table):\n"
        "        start = time.perf_counter()\n"
        "        return (time.perf_counter() - start) * 1000.0\n"
        "    def run_batch(self, batch_size):\n"
        "        t1 = self._wait_dirty(self.machine1, T_NODES)\n"
        "        start = time.perf_counter()\n"
        "        self.machine1.refresh(T_NODES)\n"
        "        t1 += (time.perf_counter() - start) * 1000.0\n"
        "        from time import monotonic\n"
        "        t2 = time.monotonic_ns()\n"
    )
    assert clock_reads(parent) == [4, 5, 8, 10, 11, 12]
