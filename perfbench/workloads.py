"""The benchmark's workloads: which `ncg verify` commands each one runs and
which cases each command must report.

Every command takes the workload seed as its suite `--seed`.  The seed
changes the sampled kernels and random draws; it changes neither the
inputs' structure nor the case names, so each command's expected case list
below holds for every seed.
"""

U_VALUES = ("0", "1/2", "1")
THEOREM_TRIALS = 20

# Placeholder for the generated z3 rotation manifest; run.py substitutes
# the path of the file it writes.
ROTATION_MANIFEST = "{z3-rotation}"


def theorem_cases():
    names = ["sampler", "trace-oracle-agreement"]
    names += [f"theorem-k{t:03d}-u-{u}"
              for t in range(THEOREM_TRIALS) for u in U_VALUES]
    names += [f"trace-property-{t:03d}" for t in range(THEOREM_TRIALS)]
    return sorted(names)


def chern_cases(bundle_keys, max_degree=4):
    names = [f"{key}-closedness-degree-{d}-u-{u}"
             for key in bundle_keys for d in range(0, max_degree + 1, 2)
             for u in U_VALUES]
    names += [f"vb-closedness-tau^{j}" for j in range(max_degree // 2 + 1)]
    names.append("vb-rank-density")
    return sorted(names)


def module_cases():
    names = ["hilbert-module-action", "hilbert-module-star",
             "vector-representation-multiplicative"]
    names += [f"connection-axiom-u-{u}" for u in U_VALUES]
    return sorted(names)


def _verify(suite, fixture, *extra):
    return ["verify", "--suite", suite, "--fixture", fixture, *extra]


# name -> (why, [(command id, ncg argv without --seed, expected case names)])
WORKLOADS = {
    "theorem-scalar": (
        "commutator-trace theorem on z3, pair2 and z2swap: kernel linearity "
        "sweeps, GaussRat arithmetic and many queries to small reducers",
        [("theorem/z3", _verify("theorem", "z3"), theorem_cases()),
         ("theorem/pair2", _verify("theorem", "pair2"), theorem_cases()),
         ("theorem/z2swap", _verify("theorem", "z2swap"), theorem_cases())],
    ),
    "chern-scalar": (
        "Chern closedness to degree 4 on z3 and on z3's rotation bundle: "
        "dominated by building the degree-5 commutator reducer",
        [("chern/z3", _verify("chern", "z3", "--max-degree", "4"),
          chern_cases(("rank1", "rank2"))),
         ("chern/z3-rotation",
          _verify("chern", ROTATION_MANIFEST, "--max-degree", "4"),
          chern_cases(("main",)))],
    ),
    "chart-1d": (
        "theorem and module suites on the z2chart fixture: the only path "
        "through polynomial-form coefficients, pullbacks and connections",
        [("theorem/z2chart", _verify("theorem", "z2chart"), theorem_cases()),
         ("module/z2chart", _verify("module", "z2chart"), module_cases())],
    ),
}


def commands(workload, seed, manifests):
    """The workload's commands for one seed, with generated paths filled in."""
    out = []
    for command_id, argv, expected in WORKLOADS[workload][1]:
        argv = [manifests.get(arg, arg) for arg in argv] + ["--seed", str(seed)]
        out.append({"id": command_id, "argv": argv, "expected": expected})
    return out


def sources(workload, manifests):
    """Every fixture name or manifest path the workload's commands load."""
    out = []
    for _, argv, _ in WORKLOADS[workload][1]:
        source = argv[argv.index("--fixture") + 1]
        source = manifests.get(source, source)
        if source not in out:
            out.append(source)
    return out
