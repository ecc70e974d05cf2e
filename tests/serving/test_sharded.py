"""Sharded sweep executor: exact parity with the single-process engine."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import blas
from repro.core import BatchedDSEPredictor
from repro.dse import ExhaustiveOracle
from repro.faults import RetryPolicy
from repro.serving import ShardedSweepExecutor
from repro.serving import sharded as sharded_mod

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _exploding_shard(args):
    """Module-level so the pool can pickle it by reference (fork test)."""
    raise RuntimeError(f"shard {args[0]} exploded")


class TestSharding:
    def test_shards_are_contiguous_and_cover_everything(self, serve_model,
                                                        problem, rng):
        ex = ShardedSweepExecutor(serve_model, num_workers=4,
                                  min_shard_size=10)
        inputs = problem.sample_inputs(103, rng)
        shards = ex.shard(inputs)
        reassembled = np.concatenate([rows for _, rows in shards])
        np.testing.assert_array_equal(reassembled, inputs)
        assert [idx for idx, _ in shards] == list(range(len(shards)))
        assert len(shards) <= 4

    def test_small_sweeps_skip_the_pool(self, serve_model, problem, rng):
        ex = ShardedSweepExecutor(serve_model, num_workers=4,
                                  min_shard_size=256)
        ex.predict_indices(problem.sample_inputs(64, rng))
        assert ex._pool is None        # fallback path, no fork cost
        ex.close()


class TestParity:
    def test_10k_sweep_matches_single_process_exactly(self, serve_model,
                                                      problem):
        """The acceptance gate: 10k workloads, bit-identical shards."""
        inputs = problem.sample_inputs(10_000, np.random.default_rng(7))
        single = BatchedDSEPredictor(serve_model).predict_indices(inputs)
        with ShardedSweepExecutor(serve_model, num_workers=3,
                                  min_shard_size=64) as ex:
            sharded = ex.predict_indices(inputs)
        np.testing.assert_array_equal(sharded[0], single[0])
        np.testing.assert_array_equal(sharded[1], single[1])

    def test_with_cost_matches_single_process(self, serve_model, problem,
                                              rng):
        inputs = problem.sample_inputs(300, rng)
        single = BatchedDSEPredictor(serve_model).sweep(inputs,
                                                        with_cost=True)
        with ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=32) as ex:
            pe_idx, l2_idx = ex.predict_indices(inputs)
        cost = ExhaustiveOracle(problem).cost_at(inputs, pe_idx, l2_idx)
        np.testing.assert_array_equal(cost, single.predicted_cost)

    def test_pool_is_reused_across_sweeps(self, serve_model, problem, rng):
        with ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=32) as ex:
            ex.predict_indices(problem.sample_inputs(200, rng))
            pool = ex._pool
            ex.predict_indices(problem.sample_inputs(200, rng))
            assert ex._pool is pool    # workers load the model once

    def test_single_worker_never_forks(self, serve_model, problem, rng):
        ex = ShardedSweepExecutor(serve_model, num_workers=1)
        inputs = problem.sample_inputs(600, rng)
        pe, l2 = ex.predict_indices(inputs)
        assert ex._pool is None
        reference = BatchedDSEPredictor(serve_model).predict_indices(inputs)
        np.testing.assert_array_equal(pe, reference[0])
        np.testing.assert_array_equal(l2, reference[1])

    @pytest.mark.skipif(blas.num_threads() is None,
                        reason="numpy is not linked against OpenBLAS")
    def test_workers_run_one_blas_thread(self, serve_model, problem, rng):
        """Forked workers would inherit the parent's BLAS thread pool; the
        count is read inside a pool worker, with the parent on two."""
        before = blas.num_threads()
        blas.set_num_threads(2)
        try:
            with ShardedSweepExecutor(serve_model, num_workers=2,
                                      min_shard_size=32) as ex:
                ex.predict_indices(problem.sample_inputs(200, rng))
                worker_threads = ex._pool.apply(blas.num_threads)
            assert blas.num_threads() == 2      # the parent is untouched
        finally:
            blas.set_num_threads(before)
        assert worker_threads == 1


class TestFailurePaths:
    def test_close_is_idempotent(self, serve_model, problem, rng):
        ex = ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=32)
        ex.predict_indices(problem.sample_inputs(200, rng))
        assert ex._pool is not None
        state_dir = ex._state_dir.name
        ex.close()
        assert ex._pool is None and not os.path.isdir(state_dir)
        ex.close()                      # second close is a no-op
        ex.close()

    def test_close_without_pool_is_a_noop(self, serve_model):
        ex = ShardedSweepExecutor(serve_model, num_workers=1)
        ex.close()
        ex.close()

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_worker_crash_recovers_in_process(self, serve_model, problem,
                                              rng, monkeypatch):
        """A shard blowing up in every worker no longer raises: the
        supervisor retries on rebuilt pools, then degrades to in-process
        execution with bit-identical results."""
        monkeypatch.setattr(sharded_mod, "_run_shard", _exploding_shard)
        inputs = problem.sample_inputs(200, rng)
        expected = BatchedDSEPredictor(serve_model).predict_indices(inputs)
        with ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=32, mp_context="fork",
                                  retry=RetryPolicy(max_rebuilds=1,
                                                    backoff_base_s=0.0)) as ex:
            pe_idx, l2_idx = ex.predict_indices(inputs)
            assert ex._supervisor.degraded
        np.testing.assert_array_equal(pe_idx, expected[0])
        np.testing.assert_array_equal(l2_idx, expected[1])
        assert ex._pool is None         # context exit cleaned up regardless

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_state_dir_cleaned_up_on_interpreter_exit(self, serve_model,
                                                      tmp_path):
        """An executor abandoned without close() must not leak its
        repro_shard_* state dir (the weakref.finalize backstop)."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.core import AirchitectV2, ModelConfig
            from repro.dse import DSEProblem
            from repro.serving import ShardedSweepExecutor
            problem = DSEProblem()
            model = AirchitectV2(ModelConfig(d_model=16, n_layers=1,
                                             n_heads=2, embed_dim=8),
                                 problem, np.random.default_rng(0))
            ex = ShardedSweepExecutor(model, num_workers=2, min_shard_size=32)
            ex.predict_indices(problem.sample_inputs(128,
                                                     np.random.default_rng(1)))
            print(ex._state_dir.name, flush=True)
            # exits WITHOUT calling ex.close()
        """)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        state_dir = out.stdout.strip().splitlines()[-1]
        assert state_dir.startswith("/") and "repro_shard_" in state_dir
        assert not os.path.isdir(state_dir)
