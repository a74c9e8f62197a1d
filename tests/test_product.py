import dataclasses
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from expanderlab.bigraph import (
    BipartiteMultigraph,
    VertexSet,
    neighbourhood,
    random_left_sets,
    unique_neighbours,
)
from expanderlab.gadget import sample_biregular, verify_unique_neighbour_upto
from expanderlab.product import (
    AUDIT_BLOCK,
    RoutedProduct,
    audit,
    audit_sets,
    export_parity_check,
    inheritance_check,
    per_vertex_isomorphism_check,
    port_set,
    routed_product,
)

from graphs import (
    c4,
    complete_bipartite,
    double_edge,
    k21,
    k32,
    random_multigraph,
    relabelled_complete_incidence,
    swap_left_endpoints,
)
from oracles import audit_loop, inheritance_check_scan, port_set_scan, routed_product_loop


def test_c4_routed_through_k21_is_c4():
    rp = routed_product(c4(), k21())
    assert rp.product.biregularity() == (2, 2)
    assert (rp.product.n_left, rp.product.n_right) == (2, 2)
    assert Counter(rp.product.edges) == Counter(c4().edges)


def test_matching_gadget_gives_private_checks():
    # a perfect-matching gadget (c0 = d0 = 1) assigns each big edge its own right vertex
    big = sample_biregular(6, 3, 2, 4, seed=3)
    matching = BipartiteMultigraph(4, 4, tuple((i, i) for i in range(4)))
    rp = routed_product(big, matching)
    assert set(rp.product.left_degrees) == {2}
    assert set(rp.product.right_degrees) == {1}
    assert len(rp.product.edges) == len(big.edges)


def test_port_mismatch_rejected():
    with pytest.raises(ValueError, match="port-count mismatch"):
        routed_product(k32(), k21())  # gadget left 2 != d = 3


def test_product_edge_order_is_reproducible():
    big = sample_biregular(6, 3, 2, 4, seed=1)
    gadget = sample_biregular(4, 2, 1, 2, seed=2)
    assert routed_product(big, gadget).product.edges == routed_product(big, gadget).product.edges


def test_right_indexing_convention():
    big = sample_biregular(6, 3, 2, 4, seed=1)
    gadget = sample_biregular(4, 2, 2, 4, seed=5)
    rp = routed_product(big, gadget)
    assert rp.product_right_index(2, 1) == 2 * gadget.n_right + 1
    # every edge from block v lands in [v*r0, (v+1)*r0)
    for u, w in rp.product.edges:
        assert 0 <= w < big.n_right * gadget.n_right


def test_port_set_examples():
    g = c4()
    assert port_set(g, 0, VertexSet.left([0])).members == (0,)
    assert port_set(g, 0, VertexSet.left([0, 1])).members == (0, 1)
    assert port_set(g, 0, VertexSet.left([])).members == ()


def test_port_set_with_multi_edges():
    g = BipartiteMultigraph(2, 1, ((0, 0), (0, 0), (1, 0)))
    assert port_set(g, 0, VertexSet.left([0])).members == (0, 1)
    assert port_set(g, 0, VertexSet.left([1])).members == (2,)


def test_port_set_matches_the_scan_oracle():
    rng = np.random.default_rng(29)
    repeated_ports = empty_sets = 0
    for _ in range(300):
        g = random_multigraph(rng)
        sets = [rng.choice(g.n_left, size=int(rng.integers(0, g.n_left + 1)), replace=False)
                for _ in range(4)]
        for members in sets:
            s = VertexSet.left(members)
            empty_sets += len(s) == 0
            for v in range(g.n_right):
                ports = port_set(g, v, s)
                assert ports == port_set_scan(g, v, s)
                owners = [g.right_ports[v][i] for i in ports]
                repeated_ports += len(set(owners)) < len(owners)
    assert repeated_ports and empty_sets


def _inheritance_reports_agree(rp, s, v) -> bool:
    """Both checks give the same report, or both reject v; True for a report."""
    try:
        want = inheritance_check_scan(rp, s, v)
    except ValueError:
        with pytest.raises(ValueError, match="not a neighbour"):
            inheritance_check(rp, s, v)
        return False
    assert inheritance_check(rp, s, v) == want
    return True


def test_inheritance_check_matches_the_oracle():
    # on routed products, and on products of another gadget of the same shape
    # filed under this one, where counterexamples occur
    rng = np.random.default_rng(31)
    reports = counterexamples = 0
    for big, gadget in _random_pairs(40):
        rp = routed_product(big, gadget)
        stranger = sample_biregular(gadget.n_left, gadget.n_right, *gadget.require_biregular(),
                                    seed=int(rng.integers(1 << 30)))
        mixed = RoutedProduct(big=big, gadget=gadget,
                              product=routed_product(big, stranger).product,
                              c=rp.c, d=rp.d, c0=rp.c0, d0=rp.d0)
        for _ in range(10):
            members = rng.choice(big.n_left, size=int(rng.integers(1, big.n_left + 1)),
                                 replace=False)
            s = VertexSet.left(members)
            for v in range(big.n_right):
                reports += _inheritance_reports_agree(rp, s, v)
                if _inheritance_reports_agree(mixed, s, v):
                    counterexamples += not inheritance_check(mixed, s, v).ok
    assert reports and counterexamples


def test_inheritance_c4_k21():
    rp = routed_product(c4(), k21())
    rep = inheritance_check(rp, VertexSet.left([0]), 0)
    assert rep.ports == (0,)
    assert rep.gadget_unique == (0,)
    assert rep.ok and not rep.vacuous


def test_inheritance_vacuous():
    rp = routed_product(c4(), k21())
    # both ports of v = 0 are occupied: the K21 gadget has no unique neighbour
    rep = inheritance_check(rp, VertexSet.left([0, 1]), 0)
    assert rep.vacuous and rep.ok


def test_inheritance_requires_neighbour():
    big = sample_biregular(6, 3, 2, 4, seed=1)
    gadget = sample_biregular(4, 2, 1, 2, seed=0)
    rp = routed_product(big, gadget)
    s = VertexSet.left([0])
    non_neighbours = set(range(big.n_right)) - set(neighbourhood(big, s).members)
    for v in non_neighbours:
        with pytest.raises(ValueError, match="not a neighbour"):
            inheritance_check(rp, s, v)


def _random_pairs(count):
    big_params = [(6, 3, 2, 4), (8, 4, 2, 4), (6, 4, 2, 3), (4, 4, 2, 2), (8, 2, 2, 8)]
    gadget_params = {
        4: [(4, 2, 1, 2), (4, 2, 2, 4), (4, 4, 2, 2)],
        3: [(3, 1, 1, 3), (3, 3, 2, 2)],
        2: [(2, 1, 1, 2), (2, 2, 2, 2)],
        8: [(8, 4, 2, 4), (8, 2, 1, 4)],
    }
    made = 0
    seed = 0
    while made < count:
        for bp in big_params:
            for gp in gadget_params[bp[3]]:
                if made >= count:
                    return
                seed += 1
                big = sample_biregular(*bp, seed=seed)
                gadget = sample_biregular(*gp, seed=seed + 1000)
                yield big, gadget
                made += 1


def test_product_laws_random_pairs():
    for big, gadget in _random_pairs(40):
        c, d = big.require_biregular()
        c0, d0 = gadget.require_biregular()
        rp = routed_product(big, gadget)
        assert set(rp.product.left_degrees) == {c * c0}
        assert set(rp.product.right_degrees) == {d0}
        assert len(rp.product.edges) == big.n_right * len(gadget.edges)
        assert per_vertex_isomorphism_check(rp)


def test_routed_product_matches_the_edge_loop_oracle():
    # configuration-model draws put parallel edges in big graphs and gadgets;
    # the doubled edge routed through a 2-port gadget repeats one left vertex
    doubled_k21 = BipartiteMultigraph(2, 1, k21().edges * 2)
    pairs = list(_random_pairs(60)) + [(double_edge(), k21()), (double_edge(), doubled_k21),
                                       (c4(), k21())]
    assert any(len(set(big.edges)) < len(big.edges) for big, _ in pairs)
    assert any(len(set(gadget.edges)) < len(gadget.edges) for _, gadget in pairs)
    for big, gadget in pairs:
        product = routed_product(big, gadget).product
        assert product.edges == routed_product_loop(big, gadget)
        assert all(type(x) is int for edge in product.edges for x in edge)


def test_inheritance_randomized_trials():
    rng = np.random.Generator(np.random.Philox(2024))
    counterexamples = 0
    trials = 0
    for big, gadget in _random_pairs(25):
        rp = routed_product(big, gadget)
        for _ in range(40):
            size = int(rng.integers(1, min(3, big.n_left) + 1))
            members = sorted(int(x) for x in rng.choice(big.n_left, size=size, replace=False))
            s = VertexSet.left(members)
            nbhd = neighbourhood(big, s).members
            v = int(nbhd[int(rng.integers(0, len(nbhd)))])
            trials += 1
            if not inheritance_check(rp, s, v).ok:
                counterexamples += 1
    assert trials == 1000
    assert counterexamples == 0


def test_end_to_end_unique_neighbour_via_gadget():
    # whenever some block's port set is nonempty and within the gadget's
    # verified size, the product set must have a unique neighbour
    big = sample_biregular(6, 3, 2, 4, seed=8)
    gadget = sample_biregular(4, 2, 2, 4, seed=1)
    cert = verify_unique_neighbour_upto(gadget, 1)
    assert cert.verified_k == 1
    rp = routed_product(big, gadget)
    conclusive = 0
    for u in range(big.n_left):
        s = VertexSet.left([u])
        small_ports = [
            v for v in neighbourhood(big, s)
            if 1 <= len(port_set(big, v, s)) <= cert.verified_k
        ]
        if not small_ports:
            continue  # every neighbour sees u through a multi-edge
        conclusive += 1
        assert len(unique_neighbours(rp.product, s)) > 0
    assert conclusive > 0


def test_parity_check_export(tmp_path):
    g = BipartiteMultigraph(3, 2, ((0, 0), (0, 0), (1, 0), (1, 1), (2, 1)))
    path = tmp_path / "pcm.txt"
    export_parity_check(g, path)
    assert path.read_text() == "0 0 2\n0 1 1\n1 1 1\n1 2 1\n"


def _audits_agree(rp, verified_k, members) -> dict:
    """audit_sets on the rows of members, after checking it against the loop oracle."""
    sets = [VertexSet.left(row[row < rp.big.n_left].tolist()) for row in members]
    batched = audit_sets(rp, verified_k, [members])
    assert batched == audit_loop(rp, verified_k, sets)
    return batched


def test_audit_matches_the_loop_oracle_on_incidence_products():
    # K_n incidence graphs (relabelled) through gadgets with n - 1 ports, at
    # the gadget's verified size and one above it (where vacuous checks fail)
    gadgets = {5: [(4, 2, 1, 2), (4, 2, 2, 4), (4, 3, 3, 4)], 7: [(6, 3, 2, 4), (6, 4, 2, 3)]}
    rng = np.random.Generator(np.random.Philox(11))
    failures = 0
    for n, params in gadgets.items():
        for seed, gp in enumerate(params):
            rp = routed_product(relabelled_complete_incidence(n, seed),
                                sample_biregular(*gp, seed=seed))
            verified_k = verify_unique_neighbour_upto(rp.gadget, gp[0]).verified_k
            for k in (verified_k, verified_k + 1):
                members = random_left_sets(rng, rp.big.n_left, k, 150)
                counts = _audits_agree(rp, k, members)
                assert counts["conclusive"] == 150  # a simple big graph: every v fits
                failures += counts["failures"]
                if k == verified_k:
                    assert counts["failures"] == 0
    assert failures > 0


def test_audit_matches_the_loop_oracle_on_multigraphs():
    # configuration-model draws have multi-edges, so a set can meet every
    # neighbour more than verified_k times: some trials are inconclusive
    rng = np.random.Generator(np.random.Philox(12))
    inconclusive = 0
    for big, gadget in _random_pairs(20):
        rp = routed_product(big, gadget)
        for k in (1, 2):
            members = random_left_sets(rng, big.n_left, k, 60)
            inconclusive += _audits_agree(rp, k, members)["inconclusive"]
    assert inconclusive > 0
    # a double edge meets its one right vertex twice: a block of inconclusive
    # trials only, with no set left to count in the product
    rp = routed_product(double_edge(), k21())
    for count in (1, 60):
        counts = _audits_agree(rp, 1, random_left_sets(rng, 1, 1, count))
        assert counts == {"trials": count, "conclusive": 0, "inconclusive": count, "failures": 0}


def test_audit_matches_the_loop_oracle_on_a_broken_product():
    # two product edges with their left endpoints swapped break inheritance
    rng = np.random.Generator(np.random.Philox(13))
    failures = 0
    for seed in range(6):
        rp = routed_product(relabelled_complete_incidence(5, seed),
                            sample_biregular(4, 2, 1, 2, seed=seed))
        a, b = (int(x) for x in rng.choice(len(rp.product.edges), size=2, replace=False))
        broken = dataclasses.replace(rp, product=swap_left_endpoints(rp.product, a, b))
        members = random_left_sets(rng, rp.big.n_left, 2, 200)
        failures += _audits_agree(broken, 1, members)["failures"]
    assert failures > 0


def test_audit_past_one_block():
    # a full block and a part block, drawn from the one generator in turn
    rp = routed_product(relabelled_complete_incidence(5, 0), sample_biregular(4, 2, 1, 2, seed=0))
    trials = AUDIT_BLOCK + 7
    counts = audit(rp, 2, trials, np.random.Generator(np.random.Philox(4)))
    rng = np.random.Generator(np.random.Philox(4))
    rows = [row for size in (AUDIT_BLOCK, 7)
            for row in random_left_sets(rng, rp.big.n_left, 2, size)]
    assert counts == audit_loop(rp, 2, [VertexSet.left(row[row < rp.big.n_left].tolist())
                                        for row in rows])
    assert counts["trials"] == trials


def test_audit_counts_a_counterexample_behind_a_direct_unique_neighbour():
    # in a broken product, sets that keep a unique neighbour but whose chosen
    # v has a gadget unique neighbour j with (v, j) not unique: only the
    # inheritance route fails them
    rp = routed_product(relabelled_complete_incidence(5, 0), sample_biregular(4, 2, 1, 2, seed=0))
    subsets = [VertexSet.left(s) for size in (1, 2)
               for s in itertools.combinations(range(rp.big.n_left), size)]
    for a, b in itertools.combinations(range(len(rp.product.edges)), 2):
        broken = dataclasses.replace(rp, product=swap_left_endpoints(rp.product, a, b))
        found = []
        for s in subsets:
            # a simple big graph: v is the first neighbour of S, with |S| <= 2 ports
            check = inheritance_check(broken, s, neighbourhood(broken.big, s).members[0])
            if (check.counterexample and not check.vacuous
                    and unique_neighbours(broken.product, s).members):
                found.append(list(s.members) + [rp.big.n_left] * (2 - len(s)))
        if found:
            break
    assert found
    counts = _audits_agree(broken, 2, np.array(found))
    assert counts["failures"] == counts["conclusive"] == len(found)


def test_audit_counts_gadget_multiplicity():
    # ports 0 and 1 each reach one gadget right vertex by a double edge, so a
    # set that meets its chosen v at one of them has a vacuous S'; at ports 2
    # and 3 S' has two unique neighbours.  Filed over a product routed through
    # K_{4,2}, where (v, j) gets one edge from each port, only the gadget's
    # multiplicity makes those sets fail.
    doubled = BipartiteMultigraph(4, 2, ((0, 0), (0, 0), (1, 1), (1, 1),
                                         (2, 0), (2, 1), (3, 0), (3, 1)))
    rng = np.random.Generator(np.random.Philox(16))
    for seed in range(3):
        big = relabelled_complete_incidence(5, seed)
        singles = np.arange(big.n_left)[:, None]
        for rp in (routed_product(big, doubled),
                   dataclasses.replace(routed_product(big, complete_bipartite(4, 2)),
                                       gadget=doubled)):
            vacuous = sum(inheritance_check(rp, VertexSet.left([u]),
                                            neighbourhood(big, VertexSet.left([u])).members[0])
                          .vacuous for u in range(big.n_left))
            counts = _audits_agree(rp, 1, singles)
            assert 0 < vacuous == counts["failures"] < counts["conclusive"]
            _audits_agree(rp, 3, random_left_sets(rng, big.n_left, 3, 200))


def test_audit_on_a_big_multigraph_with_a_repeated_port():
    # right vertex 0 holds left vertex 0 at both its ports, so S' = {0, 1}
    # for every set that contains 0.  K_{2,2} filed over a product routed
    # through a matching fails those sets (S' is vacuous in K_{2,2}), where a
    # port set with one copy of the repeated vertex would pass them.
    big = BipartiteMultigraph(3, 3, ((0, 0), (0, 0), (1, 1), (2, 1), (1, 2), (2, 2)))
    assert big.right_ports[0] == (0, 0)
    subsets = np.array([list(s) + [3] * (3 - len(s)) for size in (1, 2, 3)
                        for s in itertools.combinations(range(3), size)])
    matching = BipartiteMultigraph(2, 2, ((0, 0), (1, 1)))
    products = (routed_product(big, k21()), routed_product(big, matching),
                dataclasses.replace(routed_product(big, matching),
                                    gadget=complete_bipartite(2, 2)))
    failures = [sum(_audits_agree(rp, k, subsets)["failures"] for k in (1, 2, 3))
                for rp in products]
    assert failures[0] > 0 and failures[1] == 0 and failures[2] > 0


def test_audit_sets_runs_no_per_set_check(monkeypatch):
    # the per-set functions are oracles only: the audit must not call them
    rng = np.random.Generator(np.random.Philox(17))
    rp = routed_product(relabelled_complete_incidence(7, 1), sample_biregular(6, 3, 2, 4, seed=0))
    members = random_left_sets(rng, rp.big.n_left, 3, 300)
    want = audit_loop(rp, 3, [VertexSet.left(row[row < rp.big.n_left].tolist())
                              for row in members])

    def refuse(*args, **kwargs):
        raise AssertionError("per-set check called")

    for target in ("product.inheritance_check", "product.port_set",
                   "product.unique_neighbours", "bigraph.unique_neighbours"):
        monkeypatch.setattr(f"expanderlab.{target}", refuse)
    assert audit_sets(rp, 3, [members]) == want


def test_audit_block_memory_does_not_grow_with_n_left():
    # one block of AUDIT_BLOCK sets over 20,000 left vertices: a mask per set
    # as wide as the left side would alone take 1024 x 20,000 bytes = 20.5 MB;
    # the audit (neighbour tables of both graphs included) stays below 8 MiB
    big = sample_biregular(20_000, 10_000, 2, 4, seed=0)
    rp = routed_product(big, sample_biregular(4, 2, 1, 2, seed=0))
    members = random_left_sets(np.random.Generator(np.random.Philox(18)), big.n_left, 5,
                               AUDIT_BLOCK)
    tracemalloc.start()
    try:
        counts = audit_sets(rp, 5, [members])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts["trials"] == AUDIT_BLOCK
    assert peak < 8 * 2 ** 20
