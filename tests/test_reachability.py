"""Every function in src/isingcert runs from the CLI, and every parameter
with a default takes another value in some run, or has a written reason not
to.

One subprocess turns on a `sys.setprofile` hook before it imports isingcert,
runs `cli.main` on each config of MATRIX, then runs tests/test_acceptance.py,
and records the code objects each of the two called.  MATRIX reaches every
task and arm, both certification profiles, both shadow sample forms,
nominal and explicit sample counts, a run that writes to $ISINGCERT_OUT,
`--constants`, and bad inputs that exit 2, 3 and 4.  Every function and
method that `ast` finds in src/isingcert must have run from MATRIX, or be on
ALLOWLIST with one of REASONS: the acceptance suite reaches it, or it is
safety code.  An entry is stale, and fails the test too, when MATRIX reaches
it, when its function is gone, when its reason is not one of REASONS, or
when its reason is ACCEPTANCE and the acceptance suite no longer reaches it.

The hook also compares, at each call of a src function, every argument with
its parameter's default: by identity, then by type and == for scalars (a
generator's resume is a call too, and shows its parameters' values then).  A
parameter with a default, in a function that MATRIX or the acceptance suite
runs, must be passed another value by some call of either, or be on
PARAM_ALLOWLIST with its reason.  An option that no run sets is one only
tests set, and it leaves src/.  A PARAM_ALLOWLIST entry is stale when its
parameter is varied, is gone, or is in a function that no longer runs.

`python tests/test_reachability.py` prints the functions that no config
reaches, the parameters that no call varies, and the stale entries of both
lists.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ACCEPTANCE = "reached by tests/test_acceptance.py"
SAFETY = "safety code"
REASONS = (ACCEPTANCE, SAFETY)

# module.qualname -> why it may stay in src/ without a CLI run reaching it
ALLOWLIST = {
    # PauliString is a dict and cache key: it refuses to change in place
    "paulis.PauliString.__setattr__": SAFETY,
    "paulis.PauliString.__delattr__": SAFETY,
    # LocalHamiltonian's error messages name their strings with it
    "paulis.PauliString.__str__": SAFETY,
    "calibration.trotter_corpus": ACCEPTANCE,
    "calibration._op_norm_capped": ACCEPTANCE,
    "certifier.strict_profile": ACCEPTANCE,
    "dynamics.NoiseModel.retain_factor": ACCEPTANCE,
    "dynamics.QueryStep.__init__": ACCEPTANCE,
    "dynamics.QueryStep.realize": ACCEPTANCE,
    "dynamics.TrotterFragment.realize": ACCEPTANCE,
    "dynamics.diamond_to_depolarizing": ACCEPTANCE,
    "dynamics.net_unitary": ACCEPTANCE,
    "hamiltonians.LocalHamiltonian.__init__": ACCEPTANCE,
    "hamiltonians.LocalHamiltonian.operator_norm": ACCEPTANCE,
    "hamiltonians.LocalHamiltonian.scaled": ACCEPTANCE,
    "hamiltonians.LocalHamiltonian.spectrum": ACCEPTANCE,
    "hamiltonians.LocalHamiltonian.to_matrix": ACCEPTANCE,
    "hamiltonians.gibbs_density": ACCEPTANCE,
    "hamiltonians.random_hamiltonian": ACCEPTANCE,
    "identity_estimator.estimate_identity_sq": ACCEPTANCE,
    "identity_estimator.exact_indicator_expectation": ACCEPTANCE,
    "identity_estimator.make_single_query_factory": ACCEPTANCE,
    "oracle.evolve": ACCEPTANCE,
    "oracle.evolve_matrix": ACCEPTANCE,
    "oracle.identity_coeff": ACCEPTANCE,
    "oracle.moment_tail_partial_sums": ACCEPTANCE,
    "oracle.operator_norm_distance": ACCEPTANCE,
    # LocalHamiltonian's coefficient dicts are keyed by strings
    "paulis.PauliString.__hash__": ACCEPTANCE,
    "stabilizers._phase_free": ACCEPTANCE,
    "stabilizers.stabilizer_state_matrix": ACCEPTANCE,
}

NOISE = "noise model: ROADMAP item 19 wires it into certify-dynamics"
# module.qualname.parameter -> why no run passes it a value besides its default
PARAM_ALLOWLIST = {
    "dynamics.NoiseModel.__init__.spam_diamond_budget": NOISE,
    "dynamics.NoiseModel.__init__.per_query_diamond_budget": NOISE,
    "identity_estimator.estimate_identity_sq.noise": NOISE,
    "identity_estimator.drawn_estimate.retain": NOISE,
}


def case(code: int, config, *flags: str, out: bool = True):
    """One CLI run: its expected exit code, its config (a dict written as
    JSON with schema 1, a str written as the file's raw text, or None for no
    --config), extra flags, and whether it passes --out."""
    return code, config, flags, out


def _dynamics(**params):
    return {"task": "certify-dynamics", "trials": 2, "params": {"eps": 0.2, **params}}


MATRIX = (
    case(0, None, "--constants"),
    case(0, _dynamics(arm="close")),
    case(0, _dynamics(arm="far", eps=0.08)),
    case(0, _dynamics(arm="close"), "--profile", "strict"),
    case(0, _dynamics(arm="far", eps=0.08, n=3, profile="strict")),
    case(0, {"task": "learn-gibbs", "trials": 2, "params": {"samples": 500}}),
    case(0, {"task": "learn-gibbs", "trials": 2, "params": {"samples": None}}, out=False),
    case(0, {"task": "learn-gibbs", "trials": 2,
             "params": {"on_grid": True, "exact_estimates": True}}),
    case(0, {"task": "certify-gibbs", "trials": 2, "params": {"samples": 2000}}),
    case(0, {"task": "certify-gibbs", "trials": 2, "params": {"arm": "far", "samples": 2000}}),
    case(0, {"task": "shadow-estimate", "trials": 2, "params": {"eps": 0.3}}),
    # batches 6^n > m: per-sample indices
    case(0, {"task": "shadow-estimate", "trials": 2, "params": {"samples": 500}}),
    case(0, {"task": "verify-bonami", "trials": 3, "parallelism": 2, "params": {"n_max": 3}}),
    case(0, {"task": "verify-bounds", "trials": 3, "params": {"footnote_pairs": 2}}),
    case(2, "{not json"),
    case(2, {"task": "certify-dynamics", "params": {"nope": 1}}),
    case(2, {"task": "learn-gibbs", "params": {"eta": None}}),
    case(2, {"task": "learn-gibbs", "params": {"support": ["ZI", "ZI"]}}),
    # a Born table has 6^n entries: shadow tasks stop at n = 10
    case(2, {"task": "shadow-estimate", "params": {"n": 11, "k": 1}}),
    # 2 / delta_l overflows: the schedule's confidence split is refused
    case(2, _dynamics(delta=5e-324)),
    case(3, _dynamics(c_op=1e50)),
    # a nominal budget over the hard cap, drawn as per-sample indices
    case(3, {"task": "shadow-estimate", "params": {"n": 9, "eps": 0.005}}),
    case(4, {"task": "certify-gibbs", "params": {"arm": "far", "beta": 0.01}}),
    case(4, _dynamics(c_frob=10.0)),
)


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every function and method in
    src/isingcert; a decorated function's code starts at its first decorator."""
    return {key: name for key, (name, _) in _definitions().items()}


def defined_parameters() -> dict[str, list[str]]:
    """module.qualname -> the names of its parameters that have a default."""
    return dict(_definitions().values())


def _definitions() -> dict[tuple[str, int], tuple[str, list[str]]]:
    """(file, first line) -> (module.qualname, names of its parameters with
    a default) of every function and method in src/isingcert."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                a = child.args
                positional = a.posonlyargs + a.args
                defaults = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                defaults += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found[str(path), line] = f"{path.stem}.{prefix}{child.name}", defaults
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted((SRC / "isingcert").glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


_CHILD = """
import gc, importlib, json, pkgutil, sys, types
import pytest
called, varied, defaults = set(), set(), {}
SCALARS = (bool, int, float, complex, str, bytes)

def same(value, default):
    return value is default or (type(value) is type(default) and isinstance(default, SCALARS)
                                and value == default)

def hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    called.add(code)
    if defaults.get(code):   # the parameters no call has varied yet
        args = frame.f_locals
        varied.update((code, name) for name, d in defaults[code] if not same(args[name], d))
        defaults[code] = [(name, d) for name, d in defaults[code] if (code, name) not in varied]

sys.setprofile(hook)
import isingcert
from isingcert.cli import main
SRC = isingcert.__path__[0]
for module in pkgutil.iter_modules(isingcert.__path__):
    importlib.import_module(f"isingcert.{module.name}")
# the default of every parameter, from the src function objects
for f in gc.get_objects():
    if isinstance(f, types.FunctionType) and f.__code__.co_filename.startswith(SRC):
        code, pos = f.__code__, f.__defaults__ or ()
        names = code.co_varnames[code.co_argcount - len(pos):code.co_argcount]
        defaults[code] = [*zip(names, pos), *(f.__kwdefaults__ or {}).items()]
codes = [main(argv) for argv in json.loads(sys.argv[1])]
cli, called = called, set()
status = pytest.main([sys.argv[2], "-q", "-p", "no:cacheprovider", "--basetemp", sys.argv[3]])
sys.setprofile(None)
with open(sys.argv[4], "w") as fh:
    json.dump({"codes": codes, "acceptance_status": int(status),
               "cli": [[c.co_filename, c.co_firstlineno] for c in cli],
               "acceptance": [[c.co_filename, c.co_firstlineno] for c in called],
               "varied": [[c.co_filename, c.co_firstlineno, name] for c, name in varied]}, fh)
"""


def run_matrix(work: Path) -> tuple[list[int], set[str], set[str], set[str]]:
    """Run MATRIX, then the acceptance suite, in one profiled process under
    `work`; returns MATRIX's exit codes, the module.qualname of every src/
    function that MATRIX ran and of every one the acceptance suite ran, and
    the module.qualname.parameter of every parameter that some call of
    either passed a value besides its default."""
    runs = []
    for i, (_, config, flags, out) in enumerate(MATRIX):
        argv = list(flags)
        if config is not None:
            path = work / f"config{i}.json"
            path.write_text(config if isinstance(config, str)
                            else json.dumps({"schema_version": 1, **config}))
            argv += ["--config", str(path)]
        if out:
            argv += ["--out", str(work / f"out{i}")]
        runs.append(argv)
    result = work / "reached.json"
    env = {**os.environ, "ISINGCERT_OUT": str(work / "default_out"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(runs),
                           str(ROOT / "tests" / "test_acceptance.py"), str(work / "acceptance"),
                           str(result)], capture_output=True, text=True, env=env, cwd=work)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["acceptance_status"] == 0, proc.stdout
    functions = defined_functions()
    reached = [{functions[key] for f, line in data[run]
                if (key := (os.path.realpath(f), line)) in functions}
               for run in ("cli", "acceptance")]
    varied = {f"{functions[key]}.{name}" for f, line, name in data["varied"]
              if (key := (os.path.realpath(f), line)) in functions}
    return data["codes"], *reached, varied


def audit(reached: set[str], acceptance: set[str]) -> tuple[list[str], list[str]]:
    """(functions neither reached nor allowlisted, stale allowlist entries:
    reached, gone, with a reason not in REASONS, or no longer reached by the
    acceptance suite that their reason names)."""
    defined = set(defined_functions().values())
    unreached = sorted(defined - reached - set(ALLOWLIST))
    stale = sorted(name for name, reason in ALLOWLIST.items()
                   if name in reached or name not in defined or reason not in REASONS
                   or reason == ACCEPTANCE and name not in acceptance)
    return unreached, stale


def audit_parameters(ran: set[str], varied: set[str]) -> tuple[list[str], list[str]]:
    """(parameters of functions that ran that no call varied, minus
    PARAM_ALLOWLIST; stale PARAM_ALLOWLIST entries).  Functions that never
    ran are skipped."""
    unvaried = {f"{function}.{name}" for function, names in defined_parameters().items()
                if function in ran for name in names} - varied
    return sorted(unvaried - set(PARAM_ALLOWLIST)), sorted(set(PARAM_ALLOWLIST) - unvaried)


def test_every_src_function_runs_or_has_a_reason(tmp_path):
    codes, reached, acceptance, varied = run_matrix(tmp_path)
    assert codes == [code for code, *_ in MATRIX]
    unreached, stale = audit(reached, acceptance)
    assert unreached == [], "no MATRIX config reaches these, and ALLOWLIST names no reason"
    assert stale == [], "these ALLOWLIST entries ran from MATRIX, are gone, or lost their reason"
    assert all(PARAM_ALLOWLIST.values())
    unvaried, stale_params = audit_parameters(reached | acceptance, varied)
    assert unvaried == [], "no call passes these a value besides their default, " \
                           "and PARAM_ALLOWLIST names no reason"
    assert stale_params == [], "these PARAM_ALLOWLIST entries are varied, gone, or never run"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        codes, reached, acceptance, varied = run_matrix(Path(work))
    unreached, stale = audit(reached, acceptance)
    unvaried, stale_params = audit_parameters(reached | acceptance, varied)
    if codes != [code for code, *_ in MATRIX]:
        print(f"exit codes {codes} differ from MATRIX's")
    print("not reached, no reason:", *unreached or ["(none)"], sep="\n  ")
    print("stale allowlist entries:", *stale or ["(none)"], sep="\n  ")
    print("not varied, no reason:", *unvaried or ["(none)"], sep="\n  ")
    print("stale parameter allowlist entries:", *stale_params or ["(none)"], sep="\n  ")
    sys.exit(bool(unreached or stale or unvaried or stale_params))
