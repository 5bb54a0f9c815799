"""The input generators are pure functions of the seed."""

from collections import Counter

import pytest

from perfkit import gen


def test_request_sequence_is_a_pure_function_of_the_seed():
    first = gen.request_sequence(7, 44, 450)
    assert first == gen.request_sequence(7, 44, 450)
    assert first != gen.request_sequence(8, 44, 450)


def test_every_seed_sends_the_same_multiset():
    counts = gen.zipf_counts(44, 450)
    assert sum(counts) == 450
    assert min(counts) >= 1
    assert counts == sorted(counts, reverse=True)
    for seed in (1, 2, 3):
        sequence = gen.request_sequence(seed, 44, 450)
        assert Counter(sequence) == Counter(dict(enumerate(counts)))


def test_too_few_requests_for_the_documents_is_an_error():
    with pytest.raises(ValueError):
        gen.zipf_counts(44, 10)


def test_documents_are_the_full_cross_product_in_a_fixed_order():
    docs = gen.documents()
    assert len(docs) == len(gen.SERVE_WORKLOADS) * len(gen.CPU_MODELS) == 44
    assert docs == gen.documents()
    assert {(doc["workload"], doc["cpu"]) for doc in docs} == {
        (workload, cpu) for workload in gen.SERVE_WORKLOADS
        for cpu in gen.CPU_MODELS}
    assert all(doc["scale"] == "test" for doc in docs)
    half = gen.documents(("atomic", "o3"))
    assert len(half) == 22 and all(doc in docs for doc in half)


@pytest.mark.parametrize("jobs", [gen.sim_single_jobs, gen.sim_multi_jobs])
def test_sim_job_lists_are_seeded_permutations(jobs):
    assert jobs(1) == jobs(1)
    assert jobs(1) != jobs(2)
    assert sorted(job.key for job in jobs(1)) \
        == sorted(job.key for job in jobs(2))
    keys = [job.key for job in jobs(1)]
    assert len(keys) == len(set(keys))


def test_sim_list_sizes_match_the_workload_table():
    assert len(gen.sim_single_jobs(1)) == 17
    assert len(gen.sim_multi_jobs(1)) == 15


def test_figure_order_is_a_seeded_permutation():
    assert gen.figure_order(1) == gen.figure_order(1)
    assert sorted(gen.figure_order(1)) == sorted(gen.FIGURES)
    assert any(gen.figure_order(seed) != gen.figure_order(1)
               for seed in range(2, 8))
