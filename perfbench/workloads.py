"""The benchmark's workloads: each is a manifest of checks made from a seed.

The program sees only the manifest.  The seed becomes the manifest's own
``seed`` (which draws every ``"v": "random"`` shift) and the seeds of the
sheared bases of Z^n (``"kind": "unimodular"``).  ``acceptance`` is the
shipped manifest, unchanged: it carries its own seed and ignores ours.
"""

import json
import os

NAMES = ("acceptance", "theta_highdim", "transference", "dual_tables")

ACCEPTANCE = os.path.join("manifests", "acceptance.json")


def _integer(n):
    return {"kind": "integer", "dim": n}


def _sheared(n, seed):
    return {"kind": "unimodular", "dim": n, "seed": seed}


def _diag(entries, name):
    n = len(entries)
    basis = [[float(entries[i]) if i == j else 0.0 for j in range(n)]
             for i in range(n)]
    return {"kind": "basis", "basis": basis, "name": name}


def _check(name, **params):
    return {"check_name": name, "params": params}


def theta_highdim(seed):
    # One huge ball per call: enumeration throughput and the certified-sum
    # truncation dominate.  The l1 ball of sech_product is enumerated as a
    # filtered l2 ball, the gaussian l2 ball directly.
    return [
        _check("theta", family="gaussian", tol=1e-9, v="random",
               lattice=_sheared(5, seed)),
        _check("theta", family="gaussian", tol=1e-9, v="random",
               lattice=_sheared(5, seed + 1)),
        _check("theta", family="sech_product", tol=1e-9, v="random",
               lattice=_integer(4)),
    ]


def transference(seed):
    # The criterion-7 set, with the ten sheared bases drawn from the seed:
    # covering_radius_estimate does nearly all the work and certified_sum
    # is never called.  Z^4 and the sheared Z^3 use coarser grids than
    # criterion 7 (16 and 32 points a side) to keep a round near 4 s.
    checks = []
    for n in (1, 2, 3, 4):
        for p in (2, 1):
            checks.append(_check("transference", p=p,
                                 resolution=16 if n == 4 else 64,
                                 lattice=_integer(n)))
    for j in range(10):
        n = 2 + j % 2
        for p in (2, 1):
            checks.append(_check("transference", p=p,
                                 resolution=64 if n == 2 else 32,
                                 lattice=_sheared(n, seed + j)))
    return checks


def dual_tables(seed):
    # The only workload that reaches the transform tables and the 1-D dual
    # sums.  No table_dir, so planning builds the same p=1.5 table once for
    # each of the two checks that need it.
    checks = []
    lattices = [_integer(1), _integer(2), _integer(3),
                _sheared(2, seed), _sheared(3, seed + 1)]
    for family in ("gaussian", "inv_cosh_product"):
        for lat in lattices:
            for t in (1.0, 1.5):
                for v in (0, "random"):
                    checks.append(_check("psf", family=family, t=t, v=v,
                                         tol=1e-9, max_residual=1e-8,
                                         lattice=lat))
    for lat in (_integer(1), _integer(2), _diag([1.0, 1.25], "diag1x1.25")):
        for t in (1.0, 1.5):
            for v in (0, "random"):
                checks.append(_check("psf", family="exp_l1", t=t, v=v,
                                     tol=1e-7, max_residual=1e-6,
                                     lattice=lat))
    checks.append(_check("part3", family="supergaussian", p=1.5, radius=1.9,
                         v="random", tol=1e-3,
                         lattice=_diag([2.0, 2.0], "2Z^2")))
    checks.append(_check("part3", family="exp_l1", radius=7.0, v="random",
                         tol=1e-6, lattice=_diag([8.0, 8.0], "8Z^2")))
    # a ball below the gaussian's inflection radius: nu comes from mu_norm
    checks.append(_check("part3", family="gaussian", radius=0.5, v="random",
                         lattice=_integer(2)))
    checks.append(_check("hypotheses", family="supergaussian", p=1.5, dim=3,
                         samples=10000, seed=seed))
    return checks


def write_manifest(workload, seed, root, out_dir):
    """Path of the manifest the program is given for this workload and seed."""
    if workload == "acceptance":
        return os.path.join(root, ACCEPTANCE)
    make = {"theta_highdim": theta_highdim, "transference": transference,
            "dual_tables": dual_tables}[workload]
    manifest = {"seed": seed,
                "budgets": {"nodes": 100_000_000, "grid": 10_000_000},
                "checks": make(seed)}
    path = os.path.join(out_dir, f"{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return path
