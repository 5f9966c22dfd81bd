"""The package's one cache rule (``fields.per_prime``): every cache keyed by a
prime holds the objects of one prime, and a call at another prime empties
them all first.

Checked here: the rule itself, that a bad prime evicts nothing, that memory
returns to its level after a run over other primes, and that threads at two
primes still get correct objects.
"""

import gc
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

import trunclog
import trunclog.bpoly as bp
from trunclog import fields
from trunclog.bpoly import b_prefix_products, b_rs
from trunclog.fields import ext_quadratic, inv_mod
from trunclog.polys import FpPoly
from trunclog.special import binomial_sum, laguerre_scaled


def per_prime_caches():
    """Every function of the package under the rule, by (module, name)."""
    return {
        (name, attr): fn
        for name, mod in list(sys.modules.items())
        if name.startswith("trunclog.")
        for attr, fn in vars(mod).items()
        if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == name
    }


def sizes():
    caches = per_prime_caches()
    return {key: fn.cache_info().currsize for key, fn in caches.items()}, dict(bp._B_CACHE)


def test_every_prime_keyed_cache_is_registered():
    caches = per_prime_caches()
    assert {name for _, name in caches} == {
        "_factorials", "ext_quadratic", "_power_rows", "_lagrange_columns",
        "laguerre_scaled", "laguerre_const_routes", "b_prefix_products",
        "product_all_b", "glog", "power_route", "_binomial_table", "_weights",
        "_a_minus_1_binomials", "_shifted_binomials", "frobenius_image",
    }
    for fn in caches.values():
        assert not hasattr(fn.__wrapped__, "cache_info")
        assert fn.cache_clear in fields.per_prime_clears


def test_a_new_prime_empties_every_cache_first():
    trunclog.verify_all(5)
    ext_quadratic(5)
    assert any(bp._B_CACHE) and fields._prime == 5
    laguerre_scaled(7, 2)  # sigma_2 of L_1, so L_1 is cached too
    counts, b_cache = sizes()
    assert b_cache == {}
    assert {key: n for key, n in counts.items() if n} == {
        ("trunclog.special", "laguerre_scaled"): 2
    }
    info = laguerre_scaled.cache_info()
    assert (info.hits, info.misses) == (0, 2)
    b_rs(7, 2, 3)
    assert {key[0] for key in bp._B_CACHE} == {7}


def test_the_same_prime_keeps_its_objects():
    g = trunclog.glog(5)
    counts = sizes()
    assert trunclog.glog(5) is g and b_rs(5, 1, 1) is b_rs(5, 1, 1)
    assert sizes() == counts


@pytest.mark.parametrize("call, shown", [
    (lambda: trunclog.glog(4), "4"),
    (lambda: trunclog.glog("7"), "'7'"),
    (lambda: laguerre_scaled(9, 1), "9"),
    (lambda: b_prefix_products(1), "1"),
    (lambda: b_rs(15, 1, 1), "15"),
    (lambda: ext_quadratic(True), "True"),
    (lambda: trunclog.glog(5.0), "5.0"),
])
def test_a_bad_prime_evicts_nothing(call, shown):
    trunclog.glog(5)
    before = sizes()
    with pytest.raises(ValueError, match=f"modulus must be an odd prime, got {shown}$"):
        call()
    assert sizes() == before and fields._prime == 5


def test_memory_is_bounded_over_many_primes():
    # the objects of 17, 19 and 23 are all let go on the way back to 3; a
    # small pair budget saves time under tracing and fills the same caches
    tracemalloc.start()
    try:
        trunclog.verify_all(3)
        trunclog.verify_all(3)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for q in (17, 19, 23):
            trunclog.verify_all(q, c_pairs=20)
        trunclog.verify_all(3)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_threads_at_two_primes_build_correct_objects():
    # each switch empties the other prime's entries under the threads: the
    # objects are rebuilt, never mixed up
    jobs = []
    for r in range(1, 11):
        for p in (11, 13):
            jobs += [("b_rs", p, r, 11 - r), ("laguerre_scaled", p, r)]
    jobs[len(jobs) // 2:len(jobs) // 2] = [("glog", 11), ("glog", 13)]
    calls = {"b_rs": b_rs, "laguerre_scaled": laguerre_scaled, "glog": trunclog.glog}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda job: calls[job[0]](*job[1:]), jobs * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for clear in fields.per_prime_clears:  # the uncached builds read nothing kept
        clear()
    for (kind, p, *rest), got in zip(jobs * 2, results):
        if kind == "b_rs":
            r, s = rest
            want = binomial_sum(
                FpPoly([-1, r], p), FpPoly([-1, s], p), 1, -r * inv_mod(s, p) % p
            )
        else:
            want = calls[kind].__wrapped__(p, *rest)
        assert got == want, (kind, p, rest)
