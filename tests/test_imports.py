"""Every name a module under src/codim, tests/ or scripts/ imports is used in
that module, every module-level private name a module under src/codim or
scripts/ defines is referenced elsewhere in it, every public top-level
function and class of src/codim and every attribute a codim class sets has
a reader outside tests/, every defaulted parameter of src/codim is set by a
caller outside tests/, no function of src/codim converts its own
parameters with np.asarray or np.array beyond the listed ones,
scripts/reproduce.py builds its runs only from config text, every random
stream of the trainers has its own tag, and every codim name the benchmark
under bench/ calls or expects to see traced still resolves."""

import ast
import importlib
import importlib.util
import inspect
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "codim"
BENCH = ROOT / "bench"
CODE = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def path_id(path: pathlib.Path) -> str:
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def dead_private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and constants that no other
    top-level statement of the module reads."""
    tree = ast.parse(source)
    defined = {}  # name -> (line, defining statement)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            targets = [n.id for n in nodes if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = (stmt.lineno, stmt)
    dead = []
    for name, (line, own) in defined.items():
        readers = (node for stmt in tree.body if stmt is not own
                   for node in ast.walk(stmt))
        if not any(isinstance(n, ast.Name) and n.id == name for n in readers):
            dead.append(f"line {line}: {name}")
    return dead


def test_detects_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", CODE + sorted((ROOT / "tests").glob("*.py")),
                         ids=path_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_dead_private_name():
    source = ("def _used():\n    return 1\n\n"
              "def _dead():\n    return _dead()\n\n"
              "_LIMIT = 3\n_UNREAD = 4\n\n"
              "def run():\n    return _used() + _LIMIT\n")
    assert dead_private_names(source) == ["line 4: _dead", "line 8: _UNREAD"]


@pytest.mark.parametrize("path", CODE, ids=path_id)
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text(encoding="utf-8")) == []


# public names that only tests reach, each with the ROADMAP item that gives
# it a caller or removes it
UNCALLED = {"load_idx": "item 8", "write_idx_images": "item 8",
            "write_idx_labels": "item 8"}


def uncalled_public_names(defining: list[str], calling: list[str]) -> list[str]:
    """The public top-level functions and classes of the ``defining``
    sources that no statement of the ``calling`` sources reads, as a name or
    an attribute, other than the one that defines it."""
    public, read = set(), set()
    for source in calling:
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    read.add(name)
    for source in defining:
        public.update(stmt.name for stmt in ast.parse(source).body
                      if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                      and not stmt.name.startswith("_"))
    return sorted(public - read)


def test_detects_uncalled_public_name():
    defining = ("class Spec:\n    pass\n\n"
                "def run():\n    return run()\n\n"
                "def _helper():\n    pass\n")
    assert uncalled_public_names([defining], [defining]) == ["Spec", "run"]
    assert uncalled_public_names([defining], [defining, "m.run(Spec())\n"]) == []


def test_every_public_name_has_a_caller_outside_tests():
    """Each name in UNCALLED must still lack a caller, so the list cannot
    outlive the ROADMAP item that settles it."""
    defining = [path.read_text(encoding="utf-8") for path in SRC.glob("*.py")]
    calling = [path.read_text(encoding="utf-8") for path in CODE + list(BENCH.glob("*.py"))]
    assert uncalled_public_names(defining, calling) == sorted(UNCALLED)


# defaulted parameters that only tests set, each with the ROADMAP item that
# gives it a caller or removes it
UNSET_DEFAULTS = {"load_idx.max_samples": "item 8", "load_idx.downsample_to": "item 8"}


def defaulted_parameters(source: str) -> list[tuple]:
    """``(callee, label, parameter, position)`` for every defaulted parameter
    of a function of ``source``: ``callee`` is the name a call reads, the
    class for an ``__init__``; ``label`` is ``[Class.]function.parameter``;
    ``position`` counts the positional arguments before it, past ``self``,
    and is None for a keyword-only one."""
    tree = ast.parse(source)
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)}
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        cls = owner.get(id(f))
        positional = f.args.posonlyargs + f.args.args
        if cls and "staticmethod" not in [getattr(d, "id", None) for d in f.decorator_list]:
            positional = positional[1:]
        callee = cls if f.name == "__init__" else f.name
        label = f.name if cls is None else f"{cls}.{f.name}"
        first = len(positional) - len(f.args.defaults)
        out += [(callee, f"{label}.{a.arg}", a.arg, i)
                for i, a in enumerate(positional) if i >= first]
        out += [(callee, f"{label}.{a.arg}", a.arg, None)
                for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    return out


def unset_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """The labels of the defaulted parameters of the ``defining`` sources
    that no call of the ``calling`` sources sets, by keyword or by position.
    A call is matched by its callee's name or last attribute; ``*args`` sets
    every positional parameter and ``**kwargs`` every parameter."""
    calls = {}  # callee -> (most positional arguments, keywords)
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                most, keywords = calls.get(name, (0, set()))
                star = any(isinstance(a, ast.Starred) for a in node.args)
                calls[name] = (max(most, math.inf if star else len(node.args)),
                               keywords | {k.arg for k in node.keywords})
    unset = []
    for source in defining:
        for callee, label, param, position in defaulted_parameters(source):
            most, keywords = calls.get(callee, (0, set()))
            if not ({param, None} & keywords or (position is not None and position < most)):
                unset.append(label)
    return sorted(unset)


def test_detects_unset_default():
    defining = ("def run(a, b=1, *, c=2):\n    pass\n\n"
                "class Net:\n    def __init__(self, w=0):\n        pass\n"
                "    def step(self, lr=None):\n        pass\n")
    assert unset_defaults([defining], [defining]) == [
        "Net.__init__.w", "Net.step.lr", "run.b", "run.c"]
    calling = "run(0, 1)\nNet(w=3).step(*args)\nrun(0, **kw)\n"
    assert unset_defaults([defining], [calling]) == []
    assert unset_defaults([defining], ["run(0, c=1)\nnet.step()\n"]) == [
        "Net.__init__.w", "Net.step.lr", "run.b"]


def test_every_defaulted_parameter_is_set_outside_tests():
    """A default that no caller outside the tests overrides is a constant:
    each name in UNSET_DEFAULTS must still be unset, so the list cannot
    outlive the ROADMAP item that settles it."""
    defining = [path.read_text(encoding="utf-8") for path in SRC.glob("*.py")]
    calling = [path.read_text(encoding="utf-8") for path in CODE + list(BENCH.glob("*.py"))]
    assert unset_defaults(defining, calling) == sorted(UNSET_DEFAULTS)


# attributes that a codim class sets and nothing yet reads, each with the
# ROADMAP item that gives it a reader or removes it
UNREAD_ATTRIBUTES = {"pretrain_losses": "item 3"}


def unread_attributes(defining: list[str], reading: list[str]) -> list[str]:
    """The names of every ``self.<name> = ...`` in the ``defining`` sources
    that no ``.<name>`` of the ``reading`` sources loads."""
    assigned, read = set(), set()
    for source in defining:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"):
                assigned.add(node.attr)
    for source in reading:
        read.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return sorted(assigned - read)


def test_detects_unread_attribute():
    defining = ("class Net:\n    def __init__(self):\n"
                "        self.used = 1\n        self.dead: int = 2\n        self.count = 0\n"
                "    def step(self):\n        self.count += self.used\n")
    assert unread_attributes([defining], [defining]) == ["count", "dead"]
    assert unread_attributes([defining], [defining, "print(net.dead)\n"]) == ["count"]


def test_every_attribute_a_codim_class_sets_has_a_reader():
    """Each name in UNREAD_ATTRIBUTES must still lack a reader, so the list
    cannot outlive the ROADMAP item that settles it."""
    defining = [path.read_text(encoding="utf-8") for path in SRC.glob("*.py")]
    reading = [path.read_text(encoding="utf-8") for path in CODE + list(BENCH.glob("*.py"))]
    assert unread_attributes(defining, reading) == sorted(UNREAD_ATTRIBUTES)


# np.asarray / np.array calls of src/codim on their function's own parameters,
# as "module.[Class.]function(parameter)", each with why the conversion stays:
# every other function takes the ndarray its callers build
KEPT_CONVERSIONS = {
    "tensor.Tensor.__init__(data)": "loss nodes hand it a scalar value",
    "tensor.mixmatch_loss(is_labeled)": "a 0/1 int mask would index rows, not mask them",
    "metrics.auc_score(positives)": "a 0/1 int mask would index rows, not mask them",
    "models.ModelTriple.load_state_dict(values)": "each parameter gets its own buffer",
    "data.write_idx_images(images)": "an item 8 fixture writer: it sets the byte type",
    "data.write_idx_labels(labels)": "an item 8 fixture writer: it sets the byte type",
}


def parameter_conversions(source: str) -> list[str]:
    """``[Class.]function(parameter)`` for every ``np.asarray`` or ``np.array``
    call in ``source`` whose first argument is a parameter of an enclosing
    function other than ``self``, or a subscript or attribute of one."""
    found = []

    def visit(node, label: str, params: frozenset):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = params
                if isinstance(child, ast.FunctionDef):
                    a = child.args
                    inner |= {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                              a.vararg, a.kwarg] if x} - {"self"}
                visit(child, f"{label}.{child.name}".lstrip("."), inner)
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and child.args
                    and getattr(func, "attr", None) in ("asarray", "array")
                    and getattr(func.value, "id", None) == "np"):
                root = child.args[0]
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    root = root.value
                if getattr(root, "id", None) in params:
                    found.append(f"{label}({root.id})")
            visit(child, label, params)

    visit(ast.parse(source), "", frozenset())
    return found


def test_detects_parameter_conversion():
    source = ("def f(a, b, *, c):\n    x = np.asarray(a)\n    y = np.array(b[0], float)\n"
              "    np.asarray(x)\n    np.zeros(c)\n"
              "    def g(d):\n        return np.asarray(d.T + 1), np.array(c.w)\n\n"
              "class K:\n    def m(self, e):\n        np.asarray(self.e)\n"
              "        return np.asarray(e)\n")
    assert parameter_conversions(source) == ["f(a)", "f(b)", "f.g(c)", "K.m(e)"]


def test_no_function_converts_its_parameters():
    """A conversion the callers do not need hides a caller that passes the
    wrong type; each name in KEPT_CONVERSIONS must still convert, so the
    list cannot outlive its reason."""
    found = [f"{path.stem}.{label}" for path in sorted(SRC.glob("*.py"))
             for label in parameter_conversions(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(KEPT_CONVERSIONS)


# what config.make_dataset and make_train_config build from a config's values
SPEC_BUILDERS = {"BlobSpec", "NoiseSpec", "AugmentSpec", "TrainConfig", "gen_blobs"}


def called_names(source: str) -> set[str]:
    """The name, or the last attribute, of every callee in ``source``."""
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)}


def test_detects_called_names():
    assert called_names("a(b.c(1), d)\nx.y.z()\n") == {"a", "c", "z"}


def test_reproduce_builds_runs_only_from_config_text():
    """A protocol is config text: a second way to build its objects would let
    the protocols and ``codim`` describe a run differently."""
    source = (ROOT / "scripts" / "reproduce.py").read_text(encoding="utf-8")
    assert sorted(called_names(source) & SPEC_BUILDERS) == []


def rng_stream_tags(source: str) -> list[str]:
    """The tag, the second argument, of each ``_rng(seed, tag, ...)`` call in
    ``source``, as normalized source text, so 0x20 and 32 read the same."""
    return [ast.unparse(node.args[1]) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_rng"]


def test_detects_rng_stream_tags():
    source = ("a = _rng(cfg.seed, 0xA1)\nb = _rng(cfg.seed, 161, epoch)\n"
              "c = other(cfg.seed, 0x17)\n")
    assert rng_stream_tags(source) == ["161", "161"]


def test_trainer_rng_stream_tags_are_distinct():
    """Two call sites with one tag would draw from one random stream."""
    tags = rng_stream_tags((SRC / "trainers.py").read_text(encoding="utf-8"))
    assert tags and sorted(tag for tag in set(tags) if tags.count(tag) > 1) == []


def codim_attribute_chains(source: str) -> set[str]:
    """Every ``module.attr[.attr...]`` chain read from a name bound to a codim
    module, by ``from codim import m`` or by ``m = sys.modules["codim.m"]``."""
    tree = ast.parse(source)
    modules = {}  # local name -> codim module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "codim":
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Assign):
            targets, values = node.targets[0], node.value
            pairs = (zip(targets.elts, values.elts)
                     if isinstance(targets, ast.Tuple) and isinstance(values, ast.Tuple)
                     else [(targets, values)])
            for target, value in pairs:
                key = value.slice if isinstance(value, ast.Subscript) else None
                if (isinstance(target, ast.Name) and isinstance(key, ast.Constant)
                        and str(key.value).startswith("codim.")):
                    modules[target.id] = key.value.split(".", 1)[1]
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in modules:
            chains.add(".".join([modules[node.id], *reversed(attrs)]))
    return chains


def resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"codim.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_detects_codim_attribute_chains():
    source = ("import sys\nfrom codim import data as d\n"
              "t, m = sys.modules['codim.trainers'], sys.modules['codim.mixmatch']\n"
              "d.BlobSpec(1).x; t.TrainConfig.epochs; m.semi_loss; other.attr\n")
    assert codim_attribute_chains(source) == {
        "data.BlobSpec", "trainers.TrainConfig", "trainers.TrainConfig.epochs",
        "mixmatch.semi_loss"}


@pytest.mark.parametrize("name", ["workloads.py", "test_bench.py"])
def test_benchmark_attribute_reads_resolve(name):
    chains = codim_attribute_chains((BENCH / name).read_text(encoding="utf-8"))
    assert chains
    missing = []
    for dotted in sorted(chains):
        try:
            resolve(dotted)
        except AttributeError:
            missing.append(dotted)
    assert missing == []


def traced_name_problems(dotted: str) -> list[str]:
    """Why ``dotted`` would never show as a span: the benchmark's tracer
    names a function by the module that defines it, and a method by its
    class, so it must be a function defined there."""
    module, *attrs = dotted.split(".")
    owner = importlib.import_module(f"codim.{module}")
    if len(attrs) == 2:
        owner = getattr(owner, attrs[0], None)
    member = vars(owner).get(attrs[-1]) if owner is not None else None
    if not inspect.isfunction(member):
        return [f"{dotted} is not a function"]
    if len(attrs) == 1 and member.__module__ != owner.__name__:
        return [f"{dotted} is defined in {member.__module__}"]
    return []


def test_benchmark_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # layers imports its sibling tracing
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = {*layers.STEP_PHASES, *layers.OBSERVERS}
    for expect in layers.COVERAGE.values():
        names.update(expect["fires"], expect["silent"])
    assert [p for name in sorted(names) for p in traced_name_problems(name)] == []


def test_benchmark_hooks_keep_their_shape():
    """What the benchmark's own tests call: ``train_codim`` returns a duo
    with ``net_a``, ``semi_loss`` is bound in the trainers' namespace for the
    tracer to rebind, and the co-divide epoch is a method of its trainer."""
    from codim import data, mixmatch, models, noise, trainers
    assert trainers.semi_loss is mixmatch.semi_loss
    assert inspect.isfunction(vars(trainers.CodimTrainer)["epoch"])
    ds = data.gen_blobs(data.BlobSpec(3, 2, 40, 3.0, 1.0, seed=0)).with_noise(
        noise.NoiseSpec("symmetric", 0.3, seed=1))
    cfg = trainers.TrainConfig(pretrain_steps=2, warmup_epochs=1, epochs=1,
                               iters_per_epoch=1, batch_size=16, feat_hidden=(8,),
                               proj_hidden=4, proj_dim=2)
    duo, record = trainers.train_codim(ds, cfg)
    assert isinstance(duo, models.DuoModel) and len(record.rows) == 1
    assert duo.net_a.state_dict()
