"""Web prefetching: graph, PageRank, cache, predictor, framework app."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.apps.prefetch.app as prefetch_app
from repro.apps.prefetch import (
    DistributedPageRank,
    PageRankPrefetcher,
    PrefetchApplication,
    PrefetchCache,
    WebPage,
    WebPageCluster,
    generate_cluster,
    matvec_strip,
    pagerank_power,
    power_iteration_step,
    stochastic_matrix,
)
from repro.experiments.harness import run_simulation
from repro.node.cluster import testbed_small


def tiny_cluster() -> WebPageCluster:
    """A 4-page cluster with known structure."""
    pages = [
        WebPage(0, "http://x.com/home", links=[1, 2, 3]),
        WebPage(1, "http://x.com/a", links=[0]),
        WebPage(2, "http://x.com/b", links=[0, 1]),
        WebPage(3, "http://x.com/c", links=[0]),
    ]
    return WebPageCluster("x.com", pages)


# -- web graph ----------------------------------------------------------------------


def test_generate_cluster_shape_and_urls():
    cluster = generate_cluster(n_pages=100, seed=1)
    assert len(cluster) == 100
    assert cluster.contains_url("http://www.example.com/page42.html")
    assert not cluster.contains_url("http://other.com/")
    assert cluster.by_url("http://www.example.com/page7.html").page_id == 7


def test_generated_pages_always_have_links_no_self_loops():
    cluster = generate_cluster(n_pages=80, seed=3)
    for page in cluster.pages:
        assert page.links, "no dangling pages"
        assert page.page_id not in page.links


def test_generation_is_reproducible():
    a = generate_cluster(n_pages=50, seed=9)
    b = generate_cluster(n_pages=50, seed=9)
    assert all(pa.links == pb.links for pa, pb in zip(a.pages, b.pages))


def test_preferential_attachment_skews_indegree():
    cluster = generate_cluster(n_pages=300, seed=5)
    indegree = np.zeros(len(cluster))
    for page in cluster.pages:
        indegree[list(page.links)] += 1
    # Early pages should collect far more links than late ones.
    assert indegree[:30].mean() > 2.0 * indegree[-30:].mean()


# -- stochastic matrix / pagerank -------------------------------------------------------


def test_stochastic_matrix_follows_paper_construction():
    matrix = stochastic_matrix(tiny_cluster())
    # Page 0 has 3 successors: column 0 puts 1/3 on rows 1, 2, 3.
    assert matrix[1, 0] == pytest.approx(1 / 3)
    assert matrix[2, 0] == pytest.approx(1 / 3)
    assert matrix[3, 0] == pytest.approx(1 / 3)
    assert matrix[0, 0] == 0.0
    # Page 2 has successors {0, 1}: column 2 gives each 1/2.
    assert matrix[0, 2] == pytest.approx(0.5)
    assert matrix[1, 2] == pytest.approx(0.5)


def test_matrix_columns_are_stochastic():
    matrix = stochastic_matrix(generate_cluster(n_pages=60, seed=2))
    assert np.allclose(matrix.sum(axis=0), 1.0)


def test_pagerank_converges_and_sums_to_one():
    matrix = stochastic_matrix(generate_cluster(n_pages=100, seed=4))
    ranks, iterations = pagerank_power(matrix)
    assert iterations < 200
    assert ranks.sum() == pytest.approx(1.0, abs=1e-6)
    assert (ranks > 0).all()


def test_pagerank_is_fixed_point():
    matrix = stochastic_matrix(generate_cluster(n_pages=80, seed=6))
    ranks, _ = pagerank_power(matrix, tol=1e-12)
    again = power_iteration_step(matrix, ranks)
    assert np.allclose(again, ranks, atol=1e-9)


def test_home_page_outranks_average():
    cluster = generate_cluster(n_pages=200, seed=7)
    ranks, _ = pagerank_power(stochastic_matrix(cluster))
    assert ranks[0] > ranks.mean() * 2


def test_strips_reproduce_full_step_exactly():
    """Invariant: the parallel decomposition equals the sequential step."""
    matrix = stochastic_matrix(generate_cluster(n_pages=100, seed=8))
    x = np.random.default_rng(0).random(100)
    x /= x.sum()
    full = power_iteration_step(matrix, x)
    strips = [
        matvec_strip(matrix[r : r + 20], x, 0.85, 100) for r in range(0, 100, 20)
    ]
    assert np.allclose(np.concatenate(strips), full, atol=1e-14)


# -- cache ---------------------------------------------------------------------------


def test_cache_put_get_and_stats():
    cache = PrefetchCache(capacity=2)
    cache.put("a")
    assert cache.get("a") is not None
    assert cache.get("b") is None
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5


def test_cache_lru_eviction_order():
    cache = PrefetchCache(capacity=2)
    cache.put("a")
    cache.put("b")
    cache.get("a")       # touch a: b becomes LRU
    cache.put("c")       # evicts b
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.evictions == 1


def test_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        PrefetchCache(capacity=0)


# -- predictor ------------------------------------------------------------------------


def test_prefetcher_fetches_highest_ranked_links():
    cluster = tiny_cluster()
    ranks = np.array([0.5, 0.1, 0.3, 0.1])
    prefetcher = PageRankPrefetcher(cluster, ranks, top_k=2)
    predicted = prefetcher.predicted_next("http://x.com/b")  # links to 0, 1
    assert predicted == ["http://x.com/home", "http://x.com/a"]


def test_prefetching_turns_next_request_into_hit():
    cluster = tiny_cluster()
    ranks, _ = pagerank_power(stochastic_matrix(cluster))
    prefetcher = PageRankPrefetcher(cluster, ranks, top_k=3)
    assert prefetcher.handle_request("http://x.com/a") is False  # cold
    # /a links to /home which is now prefetched.
    assert prefetcher.handle_request("http://x.com/home") is True
    assert prefetcher.prefetches > 0


def test_prefetcher_ignores_foreign_urls():
    cluster = tiny_cluster()
    prefetcher = PageRankPrefetcher(cluster, np.full(4, 0.25))
    assert prefetcher.handle_request("http://elsewhere.com/") is False
    assert prefetcher.prefetches == 0


def test_prefetcher_validates_rank_size():
    with pytest.raises(ValueError):
        PageRankPrefetcher(tiny_cluster(), np.ones(3))


def test_prefetching_improves_hit_rate_on_rank_driven_walk():
    """End-to-end: a browsing session following high-rank links hits cache."""
    cluster = generate_cluster(n_pages=100, seed=11)
    ranks, _ = pagerank_power(stochastic_matrix(cluster))
    prefetcher = PageRankPrefetcher(cluster, ranks,
                                    cache=PrefetchCache(capacity=64), top_k=3)
    rng = np.random.default_rng(1)
    url = cluster.page(0).url
    for _ in range(60):
        prefetcher.handle_request(url)
        page = cluster.by_url(url)
        # Users tend to click important links (the paper's premise).
        ranked = sorted(page.links, key=lambda p: ranks[p], reverse=True)
        pick = ranked[0] if rng.random() < 0.7 else int(rng.choice(page.links))
        url = cluster.page(pick).url
    assert prefetcher.cache.hit_rate > 0.5


# -- the framework application --------------------------------------------------------


def test_app_plans_25_strip_tasks():
    app = PrefetchApplication()
    tasks = app.plan()
    assert len(tasks) == 25
    assert all(t.payload["rows"].shape == (20, 500) for t in tasks)
    assert all(t.payload["x"].shape == (500,) for t in tasks)


def test_app_round_equals_sequential_power_step():
    app = PrefetchApplication(n_pages=100, strip_size=20, seed=3)
    solution = app.run_sequential()
    expected = power_iteration_step(app.matrix, app.x, app.damping)
    assert np.allclose(solution, expected, atol=1e-14)


def test_app_chained_rounds_converge_to_pagerank():
    app = PrefetchApplication(n_pages=100, strip_size=20, seed=3)
    reference, _ = pagerank_power(app.matrix, tol=1e-12)
    for _ in range(100):
        app.advance(app.run_sequential())
    assert np.allclose(app.x, reference, atol=1e-8)


def test_app_rejects_bad_strip_size():
    with pytest.raises(ValueError, match="strip_size"):
        PrefetchApplication(n_pages=500, strip_size=30)


def test_app_rejects_zero_strip_size():
    with pytest.raises(ValueError, match="strip_size"):
        PrefetchApplication(n_pages=500, strip_size=0)


def test_generate_cluster_needs_two_pages():
    # One page has nowhere to link: the generator would draw from NaN weights.
    with pytest.raises(ValueError, match="n_pages"):
        generate_cluster(n_pages=1)


@pytest.mark.parametrize("n_pages", [0, 1])
def test_app_needs_two_pages(n_pages):
    with pytest.raises(ValueError, match="n_pages"):
        PrefetchApplication(n_pages=n_pages)


def test_rejected_arguments_never_reach_the_input_cache():
    before = prefetch_app._generated_inputs.cache_info()
    with pytest.raises(ValueError):
        PrefetchApplication(n_pages=70, strip_size=30, seed=123)
    with pytest.raises(ValueError):
        PrefetchApplication(n_pages=1, seed=123)
    assert prefetch_app._generated_inputs.cache_info() == before


# -- inputs shared between default apps ------------------------------------------------


def test_default_apps_share_one_generated_cluster_and_matrix():
    a, b = PrefetchApplication(), PrefetchApplication(damping=0.5)
    assert a.cluster is b.cluster
    assert a.matrix is b.matrix
    fresh = generate_cluster(seed=0)
    assert [p.links for p in a.cluster.pages] == [p.links for p in fresh.pages]
    assert np.array_equal(a.matrix, stochastic_matrix(fresh))


@pytest.mark.parametrize("other", [dict(seed=1), dict(n_pages=100)])
def test_another_seed_or_page_count_gets_its_own_inputs(other):
    base, app = PrefetchApplication(), PrefetchApplication(**other)
    assert app.cluster is not base.cluster
    assert app.matrix is not base.matrix
    fresh = generate_cluster(**other)
    assert np.array_equal(app.matrix, stochastic_matrix(fresh))


def test_explicit_cluster_builds_its_own_matrix():
    web = generate_cluster(seed=0)
    app = PrefetchApplication(cluster=web)
    assert app.cluster is web
    assert app.matrix is not PrefetchApplication().matrix


def test_advancing_one_app_leaves_the_others_x_alone():
    a, b = PrefetchApplication(), PrefetchApplication()
    a.advance(a.run_sequential())
    assert np.array_equal(b.x, np.full(500, 1 / 500))
    assert not np.array_equal(a.x, b.x)


def test_shared_matrix_is_read_only_and_plans_hand_out_copies():
    app = PrefetchApplication()
    with pytest.raises(ValueError):
        app.matrix[0, 0] = 1.0
    rows = app.plan()[0].payload["rows"]
    assert rows.flags.writeable
    assert not np.shares_memory(rows, app.matrix)


def test_real_multi_round_run_leaves_the_shared_matrix_unchanged():
    app = PrefetchApplication(n_pages=100, seed=4)
    digest = hashlib.sha256(app.matrix.tobytes()).hexdigest()

    def body(runtime):
        driver = DistributedPageRank(runtime, testbed_small(runtime, workers=2),
                                     app, tol=0.0, max_rounds=3)
        return driver.run()

    run = run_simulation(body)
    assert run.rounds == 3
    assert not np.array_equal(app.x, np.full(100, 1 / 100))
    shared = PrefetchApplication(n_pages=100, seed=4).matrix
    assert shared is app.matrix
    assert hashlib.sha256(shared.tobytes()).hexdigest() == digest


def test_app_cost_model_matches_paper_characterization():
    app = PrefetchApplication()
    task = app.plan()[0]
    # Low planning overhead, aggregation-dominated (Table 2 / Fig. 8).
    assert app.planning_cost_ms(task) < app.aggregation_cost_ms(0, None)
    assert app.classload_profile().demand_percent == 75.0
