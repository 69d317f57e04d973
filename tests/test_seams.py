"""The private rsthp names that the tests reach. Tests hold the engine to
its public seams (run_sweep, cut into runs by helpers.recording_pool;
ergodic_sum_rate; working_set_bytes; optimize_power_split; recorded
stacked_split_search calls; unit_error_draws; count_factorizations), so
that a change to src/ rewrites only the tests of what it changes. A test
reaches a private name only where nothing public shows what it checks."""

import ast
import pathlib
import pkgutil
import re

import rsthp

ALLOWED = {
    "_cap": "its per-row flags and capped values on nan, inf and negative SINRs",
    "_worst_user_rate": "its bits at 0, subnormals, ties and the cap, which no rate isolates",
    "_error_states": "its 2**32 range check and hash bits, and how often a sweep hashes a key",
    "_lowest_failure": "the pool's shared failure index, which its initializer sets",
    "_layout": "the work arrays that a sweep allocates once and working_set_bytes charges",
    "_row_invariants": "the kernel's own arrays, in the user-order and bound-premise bit tests",
    "_set_sinrs": "the kernel's per-run SINRs, in the user-order bit test and a count of runs",
    "_mean_rates": "a mean rate's private and common parts, the premise of the split bound",
}
MODULES = {module.name for module in pkgutil.iter_modules(rsthp.__path__)}
TARGET = re.compile(r"rsthp(\.\w+)*\.(_\w+)")


def private(name):
    return name.startswith("_") and not name.endswith("__")


def private_names(tree):
    """Each (name, line) of a private rsthp name that a module reaches:
    imported from rsthp, an attribute of a name bound to an rsthp module,
    a "rsthp.<module>._name" string (a monkeypatch.setattr target), or a
    "_name" string passed after such a name (setattr, mock.patch.object)."""
    modules, nodes = {"rsthp"} | {f"rsthp.{name}" for name in MODULES}, list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "rsthp":
            modules |= {a.asname or a.name for a in node.names if a.name in MODULES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.asname and a.name.startswith("rsthp.")}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rsthp"):
            yield from ((a.name, node.lineno) for a in node.names if private(a.name))
        elif isinstance(node, ast.Attribute) and private(node.attr):
            if ast.unparse(node.value) in modules:
                yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if (match := TARGET.fullmatch(node.value)) and private(match[2]):
                yield match[2], node.lineno
        elif isinstance(node, ast.Call) and len(node.args) > 1:
            owner, name = node.args[:2]
            if (isinstance(name, ast.Constant) and private(str(name.value))
                    and ast.unparse(owner) in modules):
                yield name.value, node.lineno


def test_tests_reach_only_the_allowed_private_names():
    # A newly reached private name needs an entry with its reason, and a
    # name that no test reaches any more leaves ALLOWED.
    reached = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for name, line in private_names(ast.parse(path.read_text())):
            reached.setdefault(name, f"{path.name}:{line}")
    new = {name: where for name, where in reached.items() if name not in ALLOWED}
    assert not new, f"private names reached without a reason in ALLOWED: {new}"
    assert reached.keys() == ALLOWED.keys(), f"no longer reached: {ALLOWED.keys() - reached}"
