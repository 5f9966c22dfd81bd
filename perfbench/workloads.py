"""The three p = 19 workloads: which checkers each runs and what it builds first.

The 23 checkers are split so that each appears in exactly one workload, and
each workload leans on a different layer:

  symbolic_p19  quotient-ring compositions and products, FpPoly products of
                degree up to 171 in a; no F_{p^2} arithmetic.
  ext2_p19      CCoefficients: Gaussian elimination over F_{p^2}, almost no
                polynomial work.
  family_p19    the b-family, Jacobi, truncated binomials, roots, polylogs:
                the same polys layer at schoolbook sizes, plus XPoly products
                with RatFn coefficients.

Nothing here imports trunclog at module level, so the parent process can use
the tables without loading the library.
"""

from __future__ import annotations

P = 19
PAIR_BUDGET = 200  # the CLI default for CCoefficients at p > 5

WORKLOADS = {
    "symbolic_p19": (
        "LeftInverse",
        "RightInverse",
        "LemmaProduct",
        "PowerFormula",
        "Reciprocal",
    ),
    "ext2_p19": ("CCoefficients",),
    "family_p19": (
        "BConjugate",
        "RootsTheorem",
        "LucasCriterion",
        "Symmetry",
        "ProductFormula",
        "LFactorization",
        "PowersFunctional",
        "PowersHEqualsPMinus1",
        "PolylogShift",
        "PolylogWilson",
        "SixSymmetries",
        "FourTerm",
        "TruncBinomialRules",
        "BAltAgreement",
        "JacobiLink",
        "JacobiShift",
        "JacobiReflection",
    ),
}


def expected_cases(theorem: str, p: int = P, pairs: int = PAIR_BUDGET) -> int:
    """Case count of a passing report, from the table in verify.py's docstring."""
    table = {
        "LemmaProduct": (p - 1) ** 2,
        "BAltAgreement": (p - 1) ** 2,
        "PowerFormula": p - 1,
        "PowersFunctional": p - 1,
        "BConjugate": p - 2,
        "Symmetry": p - 2,
        "JacobiReflection": p - 2,
        "RootsTheorem": (p - 2) * (p - 1),
        "LucasCriterion": (p - 2) * (p - 1),
        "SixSymmetries": 6,
        "TruncBinomialRules": (p - 1) ** 2 + (p - 1),
        "JacobiLink": (p - 1) * (p - 2),
        "JacobiShift": (p - 1) * (p - 2),
        "CCoefficients": pairs,
    }
    return table.get(theorem, 1)


def cli_argv(theorem: str, seed: int, p: int = P) -> list[str]:
    """What a CLI user types for one checker; only CCoefficients reads --seed."""
    argv = ["verify", "--prime", str(p), "--theorem", theorem, "--format", "json"]
    if theorem == "CCoefficients":
        argv += ["--seed", str(seed)]
    return argv


def build_objects(workload: str, p: int = P) -> dict:
    """Cold-construct, through public constructors, the cached objects the
    workload's checkers read.  Returns them by name for the reference check."""
    import trunclog
    from trunclog.bpoly import b_prefix_products

    objs = {}
    if workload == "symbolic_p19":
        objs["laguerre_pm1"] = trunclog.laguerre_pm1(p)
        objs["laguerre_const"] = trunclog.laguerre_const(p)
        for r in range(1, p):
            objs[f"laguerre_scaled({r})"] = trunclog.laguerre_scaled(p, r)
        objs["glog"] = trunclog.glog(p)
    elif workload == "family_p19":
        objs["laguerre_const"] = trunclog.laguerre_const(p)
        for r in range(1, p):
            for s in range(1, p):
                objs[f"b_rs({r},{s})"] = trunclog.b_rs(p, r, s)
        for negate in (False, True):
            objs[f"b_prefix_products({negate})"] = b_prefix_products(p, negate)
        objs["product_all_b"] = trunclog.product_all_b(p)
    elif workload == "ext2_p19":
        objs["ext_quadratic"] = trunclog.ext_quadratic(p)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return objs
