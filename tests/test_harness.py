import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gramphase import (
    LinearSubspacePrior,
    RankDeficiencyError,
    RepresentationStructure,
    SolverConfig,
    blocks,
    decompose,
    experiments,
    random_subspace_prior,
    reconstruct,
    solve_batch,
    transversality_check,
)
from gramphase.cli import _build_parser, _config, main, parse_structure
from gramphase.experiments import (
    ExperimentConfig,
    run_bilipschitz,
    run_demo_solve,
    run_error_vs_noise,
    run_iterations_vs_k,
    run_simulate,
    run_transversality,
)
from gramphase.serialize import read_csv


def tiny_iter_cfg(out=None, seed=99):
    return ExperimentConfig(
        experiment="exp-iterations",
        trials=8,
        k_values=(2, 3),
        master_seed=seed,
        max_iters=200,
        out=out,
    )


@pytest.fixture
def split(monkeypatch):
    """``split(w)`` runs the sweeps at ``w`` CPUs with a row floor of 1 in
    either field, so that even a small or complex stack is dealt out to
    ``w`` shares."""
    monkeypatch.setattr(experiments, "SPLIT_ROWS", {"real": 1, "complex": 1})
    return lambda workers: monkeypatch.setattr(blocks, "_workers", lambda: workers)


class TestStructureParsing:
    def test_shorthands(self):
        assert parse_structure("8x4").blocks == ((8, 4),)
        assert parse_structure("8x4,3x2:complex").field == "complex"
        assert parse_structure("cyclic:8").blocks == ((1, 1), (2, 1), (2, 1), (2, 1), (1, 1))
        assert parse_structure("cyclic:4:complex").num_blocks == 4
        s = parse_structure('{"field": "real", "blocks": [[8, 4]]}')
        assert s == RepresentationStructure(((8, 4),), "real")
        assert parse_structure("[[2, 1], [1, 3]]").blocks == ((2, 1), (1, 3))

    @pytest.mark.parametrize(
        "text, named",
        [("cyclic:8:complx", "'complx'"), ("cyclic:8:", "''"),
         ("cyclic:8:complex:x", "cyclic:N:FIELD")],
    )
    def test_misspelled_cyclic_field_is_refused(self, text, named, capsys):
        with pytest.raises(ValueError, match=re.escape(named)):
            parse_structure(text)
        assert main(["bilipschitz", "--structure", text, "--trials", "10"]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("text, value", [("cyclic:2.5", "'2.5'"), ("cyclic:x", "'x'"),
                                             ("cyclic:0", "0")])
    def test_cyclic_order_that_is_not_whole_is_refused_by_name(self, text, value, capsys):
        named = f"cyclic order must be a whole number >= 1, got {value}"
        with pytest.raises(ValueError, match=re.escape(named)):
            parse_structure(text)
        assert main(["bilipschitz", "--structure", text, "--trials", "10"]) == 1
        assert f"error: {named}\n" in capsys.readouterr().err


class TestExperimentConfig:
    def test_ap_alias_resolved_on_construction(self):
        cfg = ExperimentConfig(algorithm="ap")
        assert cfg.algorithm == "alternating_projection"
        assert cfg.provenance() == ExperimentConfig().provenance()
        assert cfg.solver_config("oracle").algorithm == "alternating_projection"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"algorithm": "foo"}, "algorithm"),
            ({"action": "cyc"}, "action"),
            ({"sigma": -0.1}, "sigma"),
            ({"subspace_dim": 0}, "subspace_dim"),
            ({"n_samples": 0}, "n_samples"),
            ({"sigma": float("nan")}, "sigma"),
            ({"sigma": float("inf")}, "sigma"),
            ({"sigma_values": (0.1, float("nan"))}, "noise sweep"),
            ({"sigma_values": (float("inf"),)}, "noise sweep"),
            ({"algorithm": "rrr", "beta": 1.5}, "beta"),
            ({"max_iters": 0}, "max_iters"),
            ({"max_iters": 10.5}, "max_iters"),
            ({"max_iters": True}, "max_iters"),
            ({"max_iters": "5"}, "max_iters"),
            ({"tol": 0.0}, "tol"),
            ({"tol": float("nan")}, "tol"),
            ({"tol": float("inf")}, "tol"),
            ({"master_seed": 2**32}, r"master_seed must be in \[0, 2\*\*32\)"),
        ],
    )
    def test_rejects_invalid_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("trials", 2.5), ("trials", True), ("trials", 0), ("n_samples", 1.5),
        ("n_samples", "5"), ("master_seed", 1.5), ("master_seed", -1),
        ("master_seed", float("nan")), ("subspace_dim", 2.5),
        ("grid_resolution", 8.5), ("max_iters", 10.5), ("k_values", (2, 2.5)),
        ("k_values", (True,)),
    ])
    def test_counts_that_are_not_whole_are_refused_by_name(self, name, value):
        named = "each of k_values" if name == "k_values" else name
        with pytest.raises(ValueError, match=f"^{named} must be a whole number >= "):
            ExperimentConfig(**{name: value})

    def test_whole_counts_are_stored_as_ints_and_hash_alike(self):
        counts = dict(trials=5, n_samples=50, master_seed=3, subspace_dim=2,
                      grid_resolution=64, max_iters=10)
        cfg = ExperimentConfig(k_values=[2.0, np.int32(4)], **{
            name: (float(v) if i % 2 else np.int64(v)) for i, (name, v) in enumerate(counts.items())})
        assert {name: getattr(cfg, name) for name in counts} == counts
        assert all(type(getattr(cfg, name)) is int for name in counts)
        assert cfg.k_values == (2, 4) and all(type(k) is int for k in cfg.k_values)
        assert cfg.provenance() == ExperimentConfig(k_values=(2, 4), **counts).provenance()
        # the hash an int max_iters has always had
        assert ExperimentConfig(max_iters=10.0).provenance()[1] == "config_hash=126735be28d099cb"

    def test_a_grid_resolution_that_is_not_whole_is_refused_by_name(self):
        s = RepresentationStructure(((1, 1), (2, 1)))
        prior = random_subspace_prior(s, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^grid_resolution must be a whole number, got 8\.5"):
            transversality_check(s, prior, 2, 8.5, np.random.default_rng(1))
        got = transversality_check(s, prior, 2.0, 8.0, np.random.default_rng(1))
        want = transversality_check(s, prior, 2, 8, np.random.default_rng(1))
        assert got.point_margins == want.point_margins

    def test_the_removed_workers_field_is_refused(self):
        with pytest.raises(TypeError, match="workers"):
            ExperimentConfig(workers=2)

    def test_largest_seed_accepted(self):
        assert ExperimentConfig(master_seed=2**32 - 1).master_seed == 2**32 - 1

    @pytest.mark.parametrize(
        "runner, subspace_dim, trials",
        [("exp-noise", 10, 200), ("solve", 4, 200), ("transversality", 2, 20),
         ("bilipschitz", 4, 100_000)],
    )
    def test_runner_fallbacks(self, runner, subspace_dim, trials):
        # keyed by the runner, not by the config's experiment name
        cfg = ExperimentConfig()
        assert (cfg.resolved_subspace_dim(runner), cfg.resolved_trials(runner)) == (
            subspace_dim, trials,
        )
        cfg = ExperimentConfig(subspace_dim=3, trials=5)
        assert (cfg.resolved_subspace_dim(runner), cfg.resolved_trials(runner)) == (3, 5)

    def test_runner_uses_its_own_fallbacks_under_another_experiment_name(self):
        cfg = ExperimentConfig(structure=RepresentationStructure(((2, 2), (1, 1)), "real"))
        assert cfg.experiment != "transversality"
        report = run_transversality(cfg)
        assert (report["m_dim"], report["samples_checked"]) == (2, 20)

    @pytest.mark.parametrize("stop_on", ["residual", "oracle"])
    def test_solver_defaults_are_the_solver_configs(self, stop_on):
        assert ExperimentConfig().solver_config(stop_on) == SolverConfig(stop_on=stop_on)

    def test_config_hash_pinned(self):
        # values written by earlier releases; the hash payload must not move
        assert ExperimentConfig().provenance()[1] == "config_hash=2f6f80763f45a39a"
        rrr = ExperimentConfig(
            experiment="exp-noise",
            structure=RepresentationStructure(((8, 4), (3, 2)), "complex"),
            algorithm="rrr", beta=0.7, subspace_dim=3, trials=11, sigma_values=(0.0, 0.1),
        )
        assert rrr.provenance()[1] == "config_hash=a722cfcedabf8866"
        assert (
            rrr.provenance(resolved_trials=200, subspace_dim_resolved=10)[1]
            == "config_hash=e8ef6d15130d24d7"
        )
        # output paths are left out of the hash
        sim = ExperimentConfig(
            experiment="simulate", action="cyclic", n_samples=50, sigma=0.2, master_seed=2,
            out="x", gram_file="g", prior_file="p",
        )
        assert sim.provenance(file="estimate")[1] == "config_hash=3301183f36515222"


class TestIterationsExperiment:
    def test_columns_and_provenance(self, tmp_path):
        out = tmp_path / "iters.csv"
        rows = run_iterations_vs_k(tiny_iter_cfg(out=str(out)))
        assert [r["K"] for r in rows] == [2, 3]
        header, body, comments = read_csv(out)
        assert header == ["K", "median_iterations", "convergence_rate"]
        assert len(body) == 2
        assert any(c.startswith("config_hash=") for c in comments)
        assert any(c.startswith("master_seed=99") for c in comments)

    def test_serial_parallel_identical_bytes(self, tmp_path, split):
        outs = [tmp_path / f"w{workers}.csv" for workers in (1, 2, 3)]
        for workers, out in zip((1, 2, 3), outs):
            split(workers)
            run_iterations_vs_k(tiny_iter_cfg(out=str(out)))
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    def test_cli_workers_give_identical_bytes(self, tmp_path, split):
        # 7 trials at 3 dimensions: one stack of 21 rows, dealt unevenly
        # to two and three shares, each share mixing the dimensions
        # the noise sweep's sigma=0 row takes its median over its converged
        # trials, here 4 of 7
        for tag, argv in (
            ("iters", ["exp-iterations", "--trials", "7", "--K", "2,3,5", "--max-iters", "150",
                       "--seed", "5"]),
            ("noise", ["exp-noise", "--trials", "7", "--K", "4", "--sigma", "0,0.01",
                       "--max-iters", "150", "--seed", "5"]),
        ):
            outs = [tmp_path / f"{tag}_w{workers}.csv" for workers in (1, 2, 3)]
            for workers, out in zip((1, 2, 3), outs):
                split(workers)
                assert main([*argv, "--out", str(out)]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        assert read_csv(tmp_path / "noise_w1.csv")[1][0][3] == repr(4 / 7)

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "one.csv", tmp_path / "two.csv"
        run_iterations_vs_k(tiny_iter_cfg(out=str(a)))
        run_iterations_vs_k(tiny_iter_cfg(out=str(b)))
        assert a.read_bytes() == b.read_bytes()


class TestIterationsBaselines:
    def test_degenerate_k1_fast_and_frozen(self):
        # regression values measured once at this seed and frozen
        cfg = ExperimentConfig(
            experiment="exp-iterations", trials=200, k_values=(1,), master_seed=2026
        )
        row = run_iterations_vs_k(cfg)[0]
        assert row["median_iterations"] < 50
        assert row["convergence_rate"] > 0.9
        assert row["median_iterations"] == 1.0
        assert row["convergence_rate"] == 1.0

    def test_paper_scale_resolution(self):
        cfg = ExperimentConfig(experiment="exp-iterations", paper_scale=True)
        assert cfg.resolved_trials() == 10_000
        assert ExperimentConfig(experiment="exp-iterations").resolved_trials() == 200
        assert ExperimentConfig(experiment="x", trials=7, paper_scale=True).resolved_trials() == 7

    def test_paper_scale_replaces_only_the_desk_default(self):
        cfg = ExperimentConfig(paper_scale=True)
        assert cfg.resolved_trials("exp-noise") == 10_000
        assert cfg.resolved_trials("transversality") == 20
        assert cfg.resolved_trials("bilipschitz") == 100_000


class TestNoiseExperiment:
    def test_columns_and_zero_sigma_semantics(self, tmp_path):
        out = tmp_path / "noise.csv"
        cfg = ExperimentConfig(
            experiment="exp-noise",
            trials=6,
            sigma_values=(0.0, 0.1),
            subspace_dim=3,
            master_seed=5,
            max_iters=150,
            out=str(out),
        )
        rows = run_error_vs_noise(cfg)
        header, body, _ = read_csv(out)
        assert header == ["sigma", "median_error", "trials", "convergence_rate"]
        assert len(body) == 2
        zero_row = rows[0]
        assert zero_row["sigma"] == 0.0
        if zero_row["convergence_rate"] > 0:
            assert zero_row["median_error"] < 1e-6
        assert rows[1]["median_error"] > rows[0]["median_error"]


def _object_trial(spec):
    """``(measured, prior, init, truth)`` of one trial, built one object at
    a time through the public API from the trial's own stream."""
    from gramphase import random_signal
    from gramphase.moments import GramTuple, clamp_psd, gram_tuple

    s = spec.structure
    rng = experiments._trial_rng(spec.master_seed, spec.slot, spec.index)
    prior = random_subspace_prior(s, spec.k, rng)
    truth = prior.basis @ rng.standard_normal(spec.k)
    if spec.sigma is None:
        measured = gram_tuple(decompose(truth, s))
    else:
        noise = spec.sigma * rng.standard_normal(s.ambient_dim)
        if s.field == "complex":
            noise = noise + 1j * spec.sigma * rng.standard_normal(s.ambient_dim)
        noisy = gram_tuple(decompose(truth + noise, s))
        measured = GramTuple(s, tuple(clamp_psd(g) for g in noisy.grams))
    return measured, prior, random_signal(s, rng), truth


def _specs(structure, ks, sigmas, trials=3, seed=41):
    """Slot ``i`` runs ``trials`` trials at subspace dimension ``ks[i]`` and
    noise ``sigmas[i]`` (None: exact)."""
    s = parse_structure(structure)
    return [experiments.TrialSpec(s, k, slot, t, seed, sigma)
            for slot, (k, sigma) in enumerate(zip(ks, sigmas)) for t in range(trials)]


TRIAL_STACKS = {
    "real K=2,4,8": ("8x4", (2, 4, 8), (None,) * 3),
    "real K=2,4,2": ("8x4", (2, 4, 2), (None,) * 3),
    "two shapes": ("8x4,3x2", (2, 4, 6), (None,) * 3),
    "two shapes noisy": ("8x4,3x2", (4, 4, 2), (0.0, 1e-2, 0.3)),
    "complex": ("8x4,3x2:complex", (3, 5, 3), (None,) * 3),
    "complex noisy": ("8x4,3x2:complex", (3, 5, 3), (0.0, 1e-3, 0.1)),
    "exact and noisy": ("8x4,3x2", (2, 4, 2), (None, 0.1, None)),
    # blocks of 16 or more rows, where a real Gram's bits depend on its path
    "large blocks": ("20x3,17x2", (4, 8, 4), (None, 1e-2, None)),
}


class TestTrialStack:
    @pytest.mark.parametrize("name, trials", [*((n, 3) for n in TRIAL_STACKS),
                                              ("complex noisy", 1), ("real K=2,4,8", 1)])
    def test_rows_are_the_objects_bit_for_bit(self, name, trials):
        structure, ks, sigmas = TRIAL_STACKS[name]
        specs = _specs(structure, ks, sigmas, trials)
        if trials == 1:
            specs = specs[1:2]  # a stack of one
        s = specs[0].structure
        grams, priors, inits, truths = experiments._trial_stack(specs)
        assert [len(g) for g in grams] == [len(specs)] * len(s.shape_groups)
        basis_of = {}
        for rows, stack in priors:
            assert stack.kind is LinearSubspacePrior
            assert {specs[t].k for t in rows} == {stack.basis.shape[2]}
            basis_of.update((int(t), b) for t, b in zip(rows, stack.basis))
        assert sorted(basis_of) == list(range(len(specs)))
        for t, spec in enumerate(specs):
            measured, prior, init, truth = _object_trial(spec)
            assert basis_of[t].tobytes() == prior.basis.tobytes()
            assert truths[t].tobytes() == truth.tobytes()
            assert inits[t].tobytes() == reconstruct(init).tobytes()
            for (_, idx), g in zip(s.shape_groups, grams):
                for j, l in enumerate(idx):
                    assert g[t, j].tobytes() == measured.grams[l].tobytes()

    @pytest.mark.parametrize("name", ["real K=2,4,2", "complex noisy", "exact and noisy"])
    def test_solved_trials_equal_the_object_solves(self, name):
        specs = _specs(*TRIAL_STACKS[name])
        config = SolverConfig(max_iters=60, stop_on="oracle")
        table = experiments._run_trials(specs, config)
        measured, priors, inits, truths = zip(*map(_object_trial, specs))
        s = specs[0].structure
        reports = solve_batch(measured, priors, config, inits,
                              [decompose(x, s) for x in truths])
        expected = [(r.iterations_used, r.converged, r.oracle_error) for r in reports]
        assert table.tobytes() == np.array(expected, dtype=float).tobytes()

    def test_rank_deficient_draw_raises_from_the_stacked_qr(self, monkeypatch):
        class Ones:  # every draw is ones: each basis has rank 1
            def standard_normal(self, size=None):
                return np.ones(size)

        monkeypatch.setattr(experiments, "_trial_rng", lambda *_: Ones())
        with pytest.raises(RankDeficiencyError, match="rank deficient"):
            experiments._trial_stack(_specs("8x4", (2, 4), (None, None)))

    def test_clamped_grams_are_checked_again(self, monkeypatch):
        monkeypatch.setattr(experiments, "clamp_psd", lambda g: -g)
        with pytest.raises(ValueError, match="block 0: Gram matrix has negative eigenvalue"):
            experiments._trial_stack(_specs("8x4,3x2", (4,), (0.1,)))

    def test_subspace_dimension_above_the_ambient_exits_1_naming_the_range(self, capsys):
        code = main(["exp-iterations", "--structure", "3x2", "--K", "2,7", "--trials", "2",
                     "--max-iters", "5"])
        assert code == 1
        assert "subspace dimension must be in [1, 6], got 7" in capsys.readouterr().err
        with pytest.raises(ValueError, match=re.escape("must be in [1, 6], got 7")):
            experiments._trial_stack(_specs("3x2", (2, 7), (None, None)))


class TestTrialShares:
    """A sweep's stack dealt out to shares on the chunk map's threads."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """``(rows, thread)`` of each trial stack built, as it is built."""
        seen, build = [], experiments._trial_stack
        monkeypatch.setattr(experiments, "_trial_stack", lambda share: (
            seen.append((len(share), threading.get_ident())) or build(share)))
        return seen

    @pytest.mark.parametrize("structure, sigmas", [
        ("8x4,3x2", (None, 0.1, 0.0)),
        ("8x4,3x2:complex", (None, 1e-3, 0.1)),
    ])
    def test_split_rows_equal_the_whole_stack_bit_for_bit(self, split, builds, structure,
                                                          sigmas):
        # mixed K, exact and noisy trials in one stack; some rows stop early
        specs = _specs(structure, (2, 5, 3), sigmas, trials=5)
        config = SolverConfig(max_iters=80, stop_on="oracle")
        tables = []
        for workers in (1, 2, 3):
            split(workers)
            tables.append(experiments._run_trials(specs, config).tobytes())
        assert sorted(rows for rows, _ in builds) == [5, 5, 5, 7, 8, 15]
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize("structure, rows", [
        ("8x4", 12), ("8x4", 36), ("8x4", 2 * experiments.SPLIT_ROWS["real"] - 1),
        ("8x4,3x2:complex", 256),  # a complex stack is never split
    ])
    def test_a_stack_below_the_floor_starts_no_thread(self, monkeypatch, builds, structure,
                                                      rows):
        def refuse(*args):
            raise AssertionError("a thread pool was used for a stack below the floor")

        monkeypatch.setattr(blocks, "_workers", lambda: 2)
        monkeypatch.setattr(blocks, "_pool", refuse)
        specs = _specs(structure, (2, 4, 8), (None,) * 3, trials=rows)[:rows]
        experiments._run_trials(specs, SolverConfig(max_iters=5, stop_on="oracle"))
        assert builds == [(rows, threading.get_ident())]

    def test_a_share_holds_at_least_the_floor(self, monkeypatch, builds):
        monkeypatch.setattr(blocks, "_workers", lambda: 3)
        floor = experiments.SPLIT_ROWS["real"]
        specs = _specs("8x4", (2, 4), (None,) * 2, trials=floor)
        experiments._run_trials(specs, SolverConfig(max_iters=5, stop_on="oracle"))
        assert [rows for rows, _ in builds] == [floor] * 2

    @pytest.mark.skipif(blocks._openblas_threads() is None,
                        reason="numpy is not on its bundled OpenBLAS")
    def test_shares_run_on_one_blas_thread(self, split, monkeypatch):
        get, set_ = blocks._openblas_threads()
        seen, build = [], experiments._trial_stack
        monkeypatch.setattr(experiments, "_trial_stack", lambda share: (
            seen.append((threading.get_ident(), get())) or build(share)))
        split(2)
        count = get()
        set_(2)
        try:
            experiments._run_trials(_specs("8x4", (2, 4), (None, 0.1)),
                                    SolverConfig(max_iters=5, stop_on="oracle"))
            assert get() == 2
        finally:
            set_(count)
        assert len(seen) == 2 and {n for _, n in seen} == {1}
        assert threading.get_ident() not in {t for t, _ in seen}

    def test_an_error_in_one_share_reaches_the_caller_and_leaves_no_thread(self, split,
                                                                           started_pool):
        split(2)
        specs = _specs("3x2", (2, 7), (None, None), trials=1)  # the second share has K=7
        threads = started_pool(2)
        with pytest.raises(ValueError, match=re.escape("must be in [1, 6], got 7")):
            experiments._run_trials(specs, SolverConfig(max_iters=5, stop_on="oracle"))
        assert threading.active_count() == threads


# SHA-256 of each file that scripts/reference_outputs.py writes for its
# runs through the chunk map: the distortion chunks of four bilipschitz
# runs (one with a one-row tail) and two sweeps of 160 and 200 real rows,
# which split into shares at two and three CPUs
CHUNK_MAP_DIGESTS = {
    "bilipschitz/bilipschitz.json":
        "ab5e83951efafff12124b3520be70de75cbe718cbad15a295b082d7e7fba3126",
    "bilipschitz/ratio_histogram.csv":
        "6518780554f365b46b53cabdee25cb1d2682b78312b2753f2b52c9149032606b",
    "bilipschitz_complex/bilipschitz.json":
        "48bd7c259dc86cb26ed3e9e54aa57d000aa2e26e2c07eb36b4e3217cdf47783c",
    "bilipschitz_complex/ratio_histogram.csv":
        "dbb936732169033f9967c6fff54a5771229f2f13ab5345936669f3c949e9767a",
    "bilipschitz_cyclic/bilipschitz.json":
        "17adeef3f9bab67737bb5afa181dd2423405484045a3f3131addcb7868a98c95",
    "bilipschitz_cyclic/ratio_histogram.csv":
        "6e432dee2699c06057e51d334c3ac27e0f94a83c7d73a7e08a54e74f76fbeb2e",
    "bilipschitz_tail/bilipschitz.json":
        "bd21955a01a688930db3be21c6aa9be4d35c49b0892b8675d28edbd2ab06d17f",
    "bilipschitz_tail/ratio_histogram.csv":
        "e663d3487061895f67aa59f01065ce772b55b582ef1f3ff93eccd0fb7c2f2852",
    "iterations_two_shapes.csv":
        "095b477e9d9925678118aedd2987f103f25e56a346e74ae614b6f3c528be51c3",
    "noise_two_shapes.csv":
        "1c22fdce5acc450a29e25e3b52980069781f9e428846f6f2033ea0bc7bcc2b6d",
}


class TestChunkMapDigests:
    """The outputs that run through the chunk map, pinned by digest at
    every worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_reference_runs_keep_their_digests(self, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(blocks, "_workers", lambda: workers)

        def config(experiment, name, structure, seed=2026, **kwargs):
            return ExperimentConfig(experiment=experiment, structure=parse_structure(structure),
                                    out=str(tmp_path / name), master_seed=seed, **kwargs)

        run_iterations_vs_k(config("exp-iterations", "iterations_two_shapes.csv", "8x4,3x2",
                                   k_values=(6, 2, 10, 2), trials=40, max_iters=300))
        run_error_vs_noise(config("exp-noise", "noise_two_shapes.csv", "8x4,3x2",
                                  subspace_dim=4, trials=50, max_iters=300))
        for name, structure, dim, pairs in (
            ("bilipschitz", "8x4", 4, 100_000),
            ("bilipschitz_complex", "8x4,3x2:complex", 3, 20_000),
            ("bilipschitz_cyclic", "cyclic:16", 4, 20_000),
            ("bilipschitz_tail", "8x4", 4, 10_241),
        ):
            run_bilipschitz(config("bilipschitz", name, structure, 7, subspace_dim=dim,
                                   trials=pairs))
        got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*") if p.is_file()}
        assert got == CHUNK_MAP_DIGESTS


# SHA-256 of each file scripts/reference_outputs.py writes for its four
# simulate runs: two full-ambiguity ones, whose observations cross the Haar
# chunks, and two cyclic ones
SIMULATE_DIGESTS = {
    "simulate_full_real/analytic_moment.csv":
        "083ea8947e11fe1f8a79ff17a8a3a66c1d119323b11cfaf27fd0ea7fa7a07ae2",
    "simulate_full_real/empirical_moment.csv":
        "f059f99de6dd6273798e15fab74c57abfdee71e8601a0a7d81068ffb85eac39b",
    "simulate_full_real/gram_estimated.json":
        "a7b07e118426defdbf19b745fecd50f09b44a70a3832c197674c633f64186fcc",
    "simulate_full_real/gram_true.json":
        "8457bf62464036bf7c20809c733b5a31c9f41d6435ca98d5c589f111918b6d1e",
    "simulate_full_real/samples.csv":
        "dc23bbf42fabb7a8c6bbb9350f58a9033ea26951239d993de0a000e218139c2c",
    "simulate_full_real/truth.json":
        "2e728d0816d41a1b7c84bc9929b84b39c314977944c9f80cc3e368afd76e3c1b",
    "simulate_full_complex/analytic_moment.csv":
        "32e28634db8ac45983a13303fe67d09e27c4ad25a2c2fc6b06261bd5cf59c4fb",
    "simulate_full_complex/empirical_moment.csv":
        "37a6b76c19ba3a923a23b34eb029c0dd4df6d70e738d41e45f876ebf49974e1a",
    "simulate_full_complex/gram_estimated.json":
        "e1a0148a6d53b20cce1a3290e539219fd627023c08e17deac68cbb6b33272c5f",
    "simulate_full_complex/gram_true.json":
        "bfd5c2d4460bb50c52817aaf9e6a8b2f1816842c1d32688d25e608b7da423649",
    "simulate_full_complex/samples.csv":
        "9f65692d8cef06811d6e6799753d013e7abb599e2d468977f9780de84d785f40",
    "simulate_full_complex/truth.json":
        "8f69b6e46e5a85f855dcecd4b74e5b95dc068a7b3a688d8604433726dae7581d",
    "simulate_cyclic_real/analytic_moment.csv":
        "dcc23a2165aff596eb29d50ac16065e8d845164577dec4f2ac5200f35a0b363c",
    "simulate_cyclic_real/empirical_moment.csv":
        "4cd275ea070eddbc5d38098fb914970615a96bd99b2235354e90974656878415",
    "simulate_cyclic_real/gram_estimated.json":
        "58f7c17a88e309e13fb0d18e1c8cd786f8c51a7739fe274a062a90ecfe06308b",
    "simulate_cyclic_real/gram_true.json":
        "3740940ff49d39ff4f8f6d5ef285d826329aea75f4ea14d89bc2a5dc3990e67e",
    "simulate_cyclic_real/samples.csv":
        "771b0c1ea6fa694fcdf9ec8705065ec23d49a7bc8eab8645285e1b4c7e2b1ce6",
    "simulate_cyclic_real/truth.json":
        "478b7ebce1dabe063eb747bdaafe8d7e34626c7b65efaf1b63d732fd310dbaa6",
    "simulate_cyclic_complex/analytic_moment.csv":
        "19bdb3a3be1950be91f156bfb6d1c932c5baaf5c58fb9689085881eee8f62f17",
    "simulate_cyclic_complex/empirical_moment.csv":
        "46af9d2d0f54cfc57bfd762ff496b4711cd8b329cd7a103844d477af8370a29e",
    "simulate_cyclic_complex/gram_estimated.json":
        "4eddacc536277278c11be9cf44e4b5017fd627592c8c46f2f34d274ceed5c593",
    "simulate_cyclic_complex/gram_true.json":
        "fe6a930f1e1ba9a2d967a90ee36562d4c7eae5535a042875d73a5e69e2b53614",
    "simulate_cyclic_complex/samples.csv":
        "612220d0245b1ae139e0c6e417c54353a359b7d39fd7ee5b2457f1a16e1e6cf8",
    "simulate_cyclic_complex/truth.json":
        "3850bb131e7abc7b02c969ea9df5101240210eb970c2f78e9b14ad6c4d968513",
}

# The rows of cyclic_sha256.txt, which scripts/reference_outputs.py
# writes: a SHA-256 of the blocks of decompose_cyclic and of
# reconstruct_cyclic per order and field, on a Gaussian signal and on
# that signal times 0.0 (signed zeros)
CYCLIC_DIGESTS = {
    "cyclic:1:real":
        "0b449e51c1babe308adefee37adec156feb84366a16ecc9d8372c27d46b9dae2",
    "cyclic:2:real":
        "49226d55b99f1703744b282e9cfdd92b75a3816ff7602fb50bb298cde92f2a92",
    "cyclic:3:real":
        "7956598a51385314626933489b7c1cb2ddc17a59466701d0a3e55ac15ccc9e55",
    "cyclic:4:real":
        "b0660db5bb1d97e7c8c1b4cf2fdc2f9ee9076f64c06f95ebbf4064f9f18aa179",
    "cyclic:5:real":
        "e38c75b75ea9bcb8120c4c7ac6e5b86c16f6f246aa3715d36a577858c650d4cf",
    "cyclic:6:real":
        "2b4ec8b37d779274efe32bb74b1487964ac3ae74f97b889ed442d9de82b93cde",
    "cyclic:7:real":
        "68f4225b4780cb5a57eac0f4c31f44c4e439d9f97e68f0f4db736385d2da0164",
    "cyclic:8:real":
        "2125c5cb9f3750a2060dd161b7a54ac387dcdca34972a74b97417205267376e7",
    "cyclic:9:real":
        "acc2fe26b86c41865a9f7fff0e2b8e3fde1f7cc6b767c87d3fe7b3b494d88c82",
    "cyclic:10:real":
        "b4fede9c358035875f88341f6cfc912da3a903cc1c6dc18e378ade2a4a8a67cf",
    "cyclic:11:real":
        "552e459b77ee33c37bfe9f35b8327da56ccf992c497e95681c23405e600a8bd5",
    "cyclic:12:real":
        "a752d4671feb740eb619b9cee9c87ae29677171349e8a0e7ca59b9daa7dd896a",
    "cyclic:13:real":
        "6c624782e5dd3a357b87d9e1454442d66690137d28834f1ffb64fb26b3330318",
    "cyclic:14:real":
        "40af281f52f70abf830bac0f82590cc459f48b8d07ef5c54a5a0732b41ac911e",
    "cyclic:15:real":
        "517907d3abcf370261b95ee48b0e2e939cf05f972c98af002ef1379a8eab1a0a",
    "cyclic:16:real":
        "126a5d9cd1c47ecfa5d8caefe0527f0f50d895b5c64ac07402932eadbd8c9a3f",
    "cyclic:17:real":
        "ac22766f272beb42bb3038cc45b8ac3c1eb45d7ea17961939cef443f8402c8d8",
    "cyclic:64:real":
        "cadf0ec65629714e0c7b7ec4ff51ab0230509f8142b2c55465a34cbade305416",
    "cyclic:1024:real":
        "fea1adb0d40d25eb7261318becb7663bfc618f613105d38eedbb261b7b9d9f19",
    "cyclic:1:complex":
        "9c45f9eea95607ae8d01f5d3ab05d821cb46a6e48f99b341a87911f3d1e2451f",
    "cyclic:2:complex":
        "3a55e3c11d22ceb591e26479a6d2a8150914bde579c639634ba0981d3c4fda2d",
    "cyclic:3:complex":
        "5eac60b764195ec2ec1c35454787935d58ce7cbe39bba08aa618dbeb92080652",
    "cyclic:4:complex":
        "1ad52392cae3beb3e9c94ab603b1db49be9705c3d3abdf037370354f193e2ade",
    "cyclic:5:complex":
        "5ff48c595f7ec2ef64d43f4a89cba3eebbd9ecef6014bd22a90d23f2cb97a931",
    "cyclic:6:complex":
        "2d7ffd03a5c605da2be2e877699b8e96f13c2287fb2b9362fa22575f79076709",
    "cyclic:7:complex":
        "8fc1a4e34a8c1dac6eef2498961049cce9c754b04b8e0cd3ad0da5950e13e156",
    "cyclic:8:complex":
        "399ec22093ce444aa83bc86748ff40e37580d489be7bfc904e2b759680326fe0",
    "cyclic:9:complex":
        "90abd37aee44538ec04b8798e70c3d5944dea61e754ff1a6c08afb2abf13de1e",
    "cyclic:10:complex":
        "b044625d28a39a694ac63daa1ecaec8aafb97dbde273a73c62c9aa4767fb347a",
    "cyclic:11:complex":
        "d8eae38730390c6e53ecdf605d694373d1ec5b5f9a5069b39fa4f04046ec63a7",
    "cyclic:12:complex":
        "2e2b39cb50c30aebf91762ca19f43ea686a7a6d484a5b415bc919004d4af6318",
    "cyclic:13:complex":
        "7624b94b0dc515edb0fafd9f03bdb5e8b38d4e36304d124b2dff70ebbaa1b19e",
    "cyclic:14:complex":
        "5dfac1384bb0bd59249f59076b73ea656125004c31d7ff440d9b2cf1d26f1444",
    "cyclic:15:complex":
        "16b447d1f47c302a23253c9e97749b9a4ed11d782e3174a0364219a877c0479d",
    "cyclic:16:complex":
        "3f66774b4aac918d1c40250b6c76296d3019f4c26c63f6ce358c369381542c7d",
    "cyclic:17:complex":
        "c88a973e709fa2c25f7ba4959e71518cb5ca30800f7550eec098a043e61ddcc6",
    "cyclic:64:complex":
        "04cb53cdd2453155afe7df9fecd8d5887f2d34d552673e8bf8222c7ba8f62e4b",
    "cyclic:1024:complex":
        "a6069517d740316238ce537b9ba1992b68532cd3b109afa6dd08c422addd820b",
}


class TestSimulateDigests:
    """The simulate runs and the cyclic transforms, pinned by digest at
    every worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_reference_runs_keep_their_digests(self, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        for name, structure, action in (
            ("full_real", "8x4,3x2,1x1", "full"),
            ("full_complex", "8x4,3x2:complex", "full"),
            ("cyclic_real", "cyclic:8", "cyclic"),
            ("cyclic_complex", "cyclic:6:complex", "cyclic"),
        ):
            run_simulate(ExperimentConfig(
                experiment="simulate", structure=parse_structure(structure),
                out=str(tmp_path / f"simulate_{name}"), action=action, n_samples=500,
                sigma=0.3, master_seed=1))
        got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*") if p.is_file()}
        assert got == SIMULATE_DIGESTS

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_cyclic_transforms_keep_their_digests(self, monkeypatch, workers):
        monkeypatch.setattr(blocks, "_workers", lambda: workers)
        got = {}
        for field in ("real", "complex"):
            for n in [*range(1, 18), 64, 1024]:
                rng = np.random.default_rng([2026, n])
                x = rng.standard_normal(n)
                if field == "complex":
                    x = x + 1j * rng.standard_normal(n)
                h = hashlib.sha256()
                for v in (x, 0.0 * x):
                    signal = blocks.decompose_cyclic(v)
                    for m in signal.matrices + (blocks.reconstruct_cyclic(signal),):
                        h.update(np.ascontiguousarray(m).tobytes())
                got[f"cyclic:{n}:{field}"] = h.hexdigest()
        assert got == CYCLIC_DIGESTS


def _write_instance(path):
    """Make an instance with the library and dump ``gram.json`` and
    ``prior.json`` into ``path``."""
    from gramphase import gram_tuple, random_subspace_prior, decompose
    from gramphase import serialize as ser

    s = RepresentationStructure(((6, 2),))
    rng = np.random.default_rng(0)
    prior = random_subspace_prior(s, 2, rng)
    truth = decompose(prior.basis @ rng.standard_normal(2), s)
    ser.save_json(path / "gram.json", ser.gram_to_dict(gram_tuple(truth)))
    ser.save_json(path / "prior.json", ser.prior_to_dict(prior))


class TestDemoSolve:
    def test_synthetic_writes_files(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="solve",
            subspace_dim=4,
            master_seed=7,
            out=str(tmp_path),
        )
        report = run_demo_solve(cfg)
        assert report.converged
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "estimate.csv").exists()
        header, body, _ = read_csv(tmp_path / "solve.csv")
        assert header == [
            "trial_id", "K", "sigma", "iterations", "converged", "residual", "oracle_error",
        ]
        assert body[0][4] == "1"

    def test_repeated_seed_byte_identical_outputs(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cfg = ExperimentConfig(
                experiment="solve", subspace_dim=3, master_seed=11,
                out=str(out),
            )
            run_demo_solve(cfg)
            blobs.append(
                ((out / "solve.csv").read_bytes(), (out / "estimate.csv").read_bytes())
            )
        assert blobs[0] == blobs[1]

    def test_solve_csv_describes_the_generated_instance(self, tmp_path):
        rows = {}
        for tag, flags in (("plain", []), ("noisy", ["--sigma", "0.5"])):
            out = tmp_path / tag
            main(["solve", "--max-iters", "50", "--out", str(out), *flags])
            rows[tag] = read_csv(out / "solve.csv")[1][0]
        assert rows["plain"][1:3] == ["4", "0.0"]
        assert rows["noisy"][1:3] == ["4", "0.5"]
        # the noise reaches the measured Grams, so the two solves differ
        assert rows["noisy"][5:] != rows["plain"][5:]

    def test_file_driven_solve(self, tmp_path):
        _write_instance(tmp_path)
        code = main(
            [
                "solve",
                "--gram", str(tmp_path / "gram.json"),
                "--prior", str(tmp_path / "prior.json"),
                "--out", str(tmp_path / "out"),
                "--seed", "3",
            ]
        )
        assert code in (0, 2)
        assert (tmp_path / "out" / "report.json").exists()
        # K and sigma describe a generated instance only
        assert read_csv(tmp_path / "out" / "solve.csv")[1][0][1:3] == ["", ""]


class TestCli:
    def test_missing_file_exits_1_with_path(self, tmp_path, capsys):
        code = main(["solve", "--gram", str(tmp_path / "nope.json"), "--prior", str(tmp_path / "nope2.json")])
        assert code == 1
        assert "nope" in capsys.readouterr().err

    def test_sweep_csv_parent_directory_is_made(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["exp-iterations", "--trials", "2", "--K", "2", "--max-iters", "20",
                     "--out", "nodir/x.csv"])
        assert code == 0
        _, body, _ = read_csv(tmp_path / "nodir" / "x.csv")
        assert len(body) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_exits_1_by_name(self, capsys, tol):
        # a NaN tolerance once ran every trial to the cap and exited 0
        code = main(["exp-iterations", "--K", "2", "--trials", "2", f"--tol={tol}",
                     "--max-iters", "5"])
        assert code == 1
        assert f"error: tol must be a finite positive number, got {float(tol)!r}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("max_iters", ["10.5", "True", "five"])
    def test_max_iters_that_is_not_an_integer_is_an_argparse_error(self, capsys, max_iters):
        with pytest.raises(SystemExit) as exit_:
            main(["exp-iterations", "--K", "2", "--trials", "2", "--max-iters", max_iters])
        assert exit_.value.code == 2
        assert f"--max-iters: invalid int value: '{max_iters}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"tol": NaN}', "tol must be a finite positive number, got nan"),
            ('{"tol": Infinity}', "tol must be a finite positive number, got inf"),
            ('{"max_iters": 10.5}', "config file key 'max_iters' must be an integer, got 10.5"),
            ('{"max_iters": true}', "config file key 'max_iters' must be an integer, got True"),
            ('{"max_iters": "5"}', "config file key 'max_iters' must be an integer, got '5'"),
        ],
    )
    def test_config_file_tol_and_max_iters_refused_by_name(self, tmp_path, capsys, text,
                                                           expected):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        code = main(["exp-iterations", "--K", "2", "--trials", "2", "--config", str(cfg_file)])
        assert code == 1
        assert f"error: {expected}" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["solve", "--gram", str(bad), "--prior", str(bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"trials": 3, "seed": 21, "K": [2]}))
        out1 = tmp_path / "a.csv"
        code = main(
            ["exp-iterations", "--config", str(cfg_file), "--out", str(out1), "--max-iters", "100"]
        )
        assert code == 0
        _, body, _ = read_csv(out1)
        assert len(body) == 1  # K from config file
        # flags override the file
        out2 = tmp_path / "b.csv"
        code = main(
            [
                "exp-iterations", "--config", str(cfg_file), "--out", str(out2),
                "--K", "2,3", "--max-iters", "100",
            ]
        )
        assert code == 0
        _, body2, _ = read_csv(out2)
        assert len(body2) == 2

    def test_cyclic_action_on_a_non_cyclic_structure_exits_1(self, tmp_path, capsys):
        code = main(["simulate", "--action", "cyclic", "--n", "5", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--action cyclic" in err and "--structure cyclic:32" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "5"],
            ["solve", "--K", "4", "--seed", "7", "--max-iters", "3"],
            ["exp-iterations", "--trials", "2", "--K", "2", "--max-iters", "20"],
            ["exp-noise", "--trials", "2", "--K", "2", "--sigma", "0", "--max-iters", "20"],
            ["transversality", "--structure", "cyclic:6", "--trials", "1", "--grid-res", "16"],
            ["bilipschitz", "--trials", "50"],
        ],
    )
    def test_no_out_writes_nothing(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) in (0, 2)
        assert not any(tmp_path.iterdir())
        assert "wrote" not in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"trils": 3}))
        assert main(["exp-iterations", "--config", str(cfg_file)]) == 1
        assert "trils" in capsys.readouterr().err

    def test_negative_sigma_sweep_exits_1(self, tmp_path, capsys):
        out = tmp_path / "noise.csv"
        assert main(["exp-noise", "--sigma=-0.1,0.01", "--trials", "2", "--out", str(out)]) == 1
        assert "noise sweep" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exits_1(self, tmp_path, capsys, sigma):
        assert main(["simulate", "--sigma", sigma, "--n", "5", "--out", str(tmp_path)]) == 1
        assert "sigma must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_empty_k_sweep_in_config_file_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"K": []}))
        assert main(["exp-iterations", "--config", str(cfg_file)]) == 1
        assert "subspace dimension sweep" in capsys.readouterr().err

    def test_cli_csv_matches_api_csv(self, tmp_path):
        cli_out, api_out = tmp_path / "cli.csv", tmp_path / "api.csv"
        code = main(
            ["exp-iterations", "--trials", "3", "--K", "2", "--max-iters", "20",
             "--seed", "3", "--out", str(cli_out)]
        )
        assert code == 0
        run_iterations_vs_k(
            ExperimentConfig(
                experiment="exp-iterations", trials=3, k_values=(2,), max_iters=20,
                master_seed=3, out=str(api_out),
            )
        )
        assert cli_out.read_bytes() == api_out.read_bytes()

    @pytest.mark.parametrize(
        "command",
        ["simulate", "solve", "exp-iterations", "exp-noise", "transversality", "bilipschitz"],
    )
    def test_no_flags_gives_the_api_defaults(self, command):
        cfg = _config(_build_parser().parse_args([command]))
        assert cfg == ExperimentConfig(experiment=command)
        assert cfg.provenance() == ExperimentConfig(experiment=command).provenance()

    def test_seed_repetition_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = main(
                ["exp-noise", "--trials", "4", "--sigma", "0.01,0.1", "--K", "4",
                 "--max-iters", "80", "--seed", "17", "--out", str(out)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_cli(self, tmp_path):
        code = main(
            ["simulate", "--structure", "cyclic:8", "--action", "cyclic", "--n", "50",
             "--sigma", "0.2", "--seed", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        for name in (
            "samples.csv", "empirical_moment.csv", "analytic_moment.csv",
            "gram_estimated.json", "gram_true.json", "truth.json",
        ):
            assert (tmp_path / name).exists(), name

    def test_transversality_cli(self, tmp_path):
        code = main(
            ["transversality", "--structure", "cyclic:6", "--K", "2", "--trials", "2",
             "--grid-res", "64", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "transversality.json").read_text())
        assert payload["samples_checked"] == 2
        assert (tmp_path / "margins.csv").exists()

    def test_bare_transversality_grids_its_cyclic_8_fallback(self, tmp_path):
        # the other runners' 8x4 fallback has a block of dimension 8, which
        # no grid covers; the resolved structure is what the hash records
        bare, given = tmp_path / "bare", tmp_path / "given"
        assert main(["transversality", "--trials", "2", "--out", str(bare)]) == 0
        assert main(["transversality", "--structure", "cyclic:8", "--trials", "2",
                     "--out", str(given)]) == 0
        payload = json.loads((bare / "transversality.json").read_text())
        assert (payload["k_effective"], payload["grid_resolution"]) == (5, 512)
        assert (bare / "margins.csv").read_bytes() == (given / "margins.csv").read_bytes()
        assert ExperimentConfig().resolved_structure("transversality") == parse_structure("cyclic:8")
        assert ExperimentConfig().resolved_structure("bilipschitz") == parse_structure("8x4")

    def test_bilipschitz_cli(self, tmp_path):
        code = main(
            ["bilipschitz", "--structure", "8x4", "--K", "4", "--trials", "500",
             "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "bilipschitz.json").read_text())
        assert payload["alpha_lower"] > 0
        assert (tmp_path / "ratio_histogram.csv").exists()


# the flags each subcommand's runner reads, by config-file name
SOLVER = "algorithm beta max_iters tol"
READS = {
    "simulate": "structure sigma seed out n action",
    "solve": f"structure K sigma seed {SOLVER} out gram prior",
    "exp-iterations": f"structure K trials seed {SOLVER} out paper_scale",
    "exp-noise": f"structure K sigma trials seed {SOLVER} out paper_scale",
    "transversality": "structure K trials seed out grid_res exclude_tol",
    "bilipschitz": "structure K trials seed out",
}
# what every subcommand took before the flags were cut to what it reads
OLD_COMMON = f"structure K sigma trials seed {SOLVER} out paper_scale"
# per flag: its non-default argv, the same value as a config-file entry,
# and the config fields it sets
FLAG_CASES = {
    "structure": (["--structure", "3x2"], "3x2",
                  {"structure": RepresentationStructure(((3, 2),))}),
    "K": (["--K", "3"], 3, {"subspace_dim": 3}),
    "sigma": (["--sigma", "0.25"], 0.25, {"sigma": 0.25}),
    "trials": (["--trials", "7"], 7, {"trials": 7}),
    "seed": (["--seed", "5"], 5, {"master_seed": 5}),
    "algorithm": (["--algorithm", "rrr"], "rrr", {"algorithm": "rrr"}),
    "beta": (["--beta", "0.25"], 0.25, {"beta": 0.25}),
    "max_iters": (["--max-iters", "9"], 9, {"max_iters": 9}),
    "tol": (["--tol", "0.001"], 0.001, {"tol": 0.001}),
    "out": (["--out", "o"], "o", {"out": "o"}),
    "paper_scale": (["--paper-scale"], True, {"paper_scale": True}),
    "n": (["--n", "9"], 9, {"n_samples": 9}),
    "action": (["--action", "cyclic"], "cyclic", {"action": "cyclic"}),
    "gram": (["--gram", "g.json"], "g.json", {"gram_file": "g.json"}),
    "prior": (["--prior", "p.json"], "p.json", {"prior_file": "p.json"}),
    "grid_res": (["--grid-res", "64"], 64, {"grid_resolution": 64}),
    "exclude_tol": (["--exclude-tol", "0.25"], 0.25, {"exclude_tol": 0.25}),
}
# sweeps take K and sigma as lists
SWEEP_FIELDS = {("exp-iterations", "K"): {"k_values": (3,)},
                ("exp-noise", "sigma"): {"sigma_values": (0.25,)}}


def _unread(command):
    return sorted(set(OLD_COMMON.split()) - set(READS[command].split()))


class TestCliFlags:
    """Each subcommand takes exactly the flags its runner reads."""

    @pytest.mark.parametrize("command", READS)
    def test_help_lists_exactly_the_read_flags(self, command):
        sub = next(a for a in _build_parser()._actions if a.choices and command in a.choices)
        text = sub.choices[command].format_help()
        flags = set(re.findall(r"^\s+(--[\w-]+)", text, re.MULTILINE))
        assert flags == {"--config"} | {FLAG_CASES[k][0][0] for k in READS[command].split()}

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, flags in READS.items() for f in flags.split()],
    )
    def test_every_read_flag_lands_in_the_config(self, command, flag):
        argv, _, fields = FLAG_CASES[flag]
        fields = SWEEP_FIELDS.get((command, flag), fields)
        cfg = _config(_build_parser().parse_args([command, *argv]))
        assert {f: getattr(cfg, f) for f in fields} == fields
        assert cfg == ExperimentConfig(experiment=command, **fields)

    @pytest.mark.parametrize("command, flag", [(c, f) for c in READS for f in _unread(c)])
    def test_unread_flag_is_refused(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args([command, *FLAG_CASES[flag][0]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_the_removed_workers_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exp-noise", "--workers", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "gramphase exp-noise: error: unrecognized arguments: --workers 2" in err

    def test_a_config_file_with_workers_is_refused(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"workers": 2}))
        assert main(["exp-noise", "--config", str(cfg_file)]) == 1
        assert "config file keys exp-noise does not read: ['workers']" in capsys.readouterr().err

    def test_unread_flag_is_reported_by_its_subcommand(self, capsys):
        assert_exit = pytest.raises(SystemExit)
        with assert_exit as exc:
            main(["bilipschitz", "--max-iters", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "gramphase bilipschitz: error: unrecognized arguments: --max-iters 5" in err
        usage = err[: err.index("gramphase bilipschitz: error")]
        assert usage.startswith("usage: gramphase bilipschitz")
        for flag in ("--config", "--structure", "--K", "--trials", "--seed", "--out"):
            assert flag in usage

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("trials", "5", "an integer"),
            ("trials", 5.0, "an integer"),
            ("seed", True, "an integer"),
            ("tol", "1e-6", "a number"),
            ("K", [2, 4.5], "an integer or a list of integers"),
            ("sigma", ["0.1"], "a number or a list of numbers"),
            ("structure", 8, "a string or an object"),
            ("paper_scale", 1, "true or false"),
            ("out", 3, "a string"),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_1(self, tmp_path, capsys, key, value,
                                                     expected):
        command = "exp-noise" if key in ("sigma", "tol", "paper_scale") else "exp-iterations"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert f"config file key {key!r} must be {expected}, got {value!r}" in err

    def test_config_file_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("[1, 2]")
        assert main(["bilipschitz", "--config", str(cfg_file)]) == 1
        assert "config file must hold a JSON object, got list" in capsys.readouterr().err

    def test_config_null_leaves_the_key_unset(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"K": None, "trials": None, "seed": 3}))
        args = _build_parser().parse_args(["exp-noise", "--config", str(cfg_file)])
        assert _config(args) == ExperimentConfig(experiment="exp-noise", master_seed=3)

    @pytest.mark.parametrize("command, key", [(c, k) for c in READS for k in _unread(c)])
    def test_unread_config_key_is_refused(self, command, key, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: FLAG_CASES[key][1]}))
        args = _build_parser().parse_args([command, "--config", str(cfg_file)])
        with pytest.raises(ValueError, match=f"'{key}'"):
            _config(args)

    @pytest.mark.parametrize(
        "flags, config, named",
        [
            (["--K", "3"], {}, "K"),
            (["--structure", "6x2", "--sigma", "0.5"], {}, "structure, sigma"),
            ([], {"K": 3, "sigma": 0.5}, "K, sigma"),
        ],
    )
    def test_file_driven_solve_refuses_generated_instance_flags(
        self, tmp_path, capsys, flags, config, named
    ):
        _write_instance(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"gram": str(tmp_path / "gram.json"), **config}))
        out = tmp_path / "out"
        argv = ["solve", "--config", str(cfg_file), "--prior", str(tmp_path / "prior.json"),
                "--seed", "3", "--out", str(out), *flags]
        assert main(argv) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_seed_beyond_32_bits_exits_1(self, tmp_path, capsys):
        assert main(["simulate", "--seed", str(2**32), "--n", "5", "--out", str(tmp_path)]) == 1
        assert "2**32" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestCliStdout:
    """The summary lines each subcommand prints, pinned on tiny configs."""

    @pytest.mark.parametrize(
        "argv, lines, code",
        [
            (["simulate", "--structure", "cyclic:8", "--action", "cyclic", "--n", "50",
              "--sigma", "0.2", "--seed", "2"],
             ["simulated n=50 observations; moment error 1.035e+00; wrote {out}"], 0),
            (["solve", "--K", "4", "--seed", "7"],
             ["converged=True iterations=177 residual=9.641e-07"], 0),
            (["solve", "--K", "4", "--seed", "7", "--max-iters", "3"],
             ["converged=False iterations=3 residual=3.919e-01"], 2),
            (["exp-iterations", "--trials", "5", "--K", "2,4", "--max-iters", "200",
              "--seed", "3"],
             ["K=2 median_iterations=34.0 convergence_rate=1.000",
              "K=4 median_iterations=122.0 convergence_rate=0.800"], 0),
            (["exp-noise", "--trials", "4", "--sigma", "0,0.01", "--K", "4",
              "--max-iters", "80", "--seed", "17"],
             ["sigma=0 median_error=5.168e-03 convergence_rate=0.000",
              "sigma=0.01 median_error=4.601e-02 convergence_rate=0.000"], 0),
            (["transversality", "--structure", "cyclic:6", "--K", "2", "--trials", "2",
              "--grid-res", "64", "--seed", "1"],
             ["worst_margin=0.234990 violations=2 (threshold 0.981748)"], 0),
            (["bilipschitz", "--structure", "8x4", "--K", "4", "--trials", "500",
              "--seed", "3"],
             ["alpha_lower=0.186883 beta_upper=0.992645 pairs=500"], 0),
        ],
    )
    def test_summary_lines(self, tmp_path, capsys, argv, lines, code):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == code
        assert capsys.readouterr().out.splitlines() == [s.format(out=out) for s in lines]


class TestSimulateModule:
    def test_moment_error_shrinks_with_n(self, tmp_path):
        small = run_simulate(
            ExperimentConfig(experiment="simulate", structure=RepresentationStructure(((4, 2),)),
                             n_samples=50, sigma=0.0, master_seed=1, out=str(tmp_path / "s"))
        )
        large = run_simulate(
            ExperimentConfig(experiment="simulate", structure=RepresentationStructure(((4, 2),)),
                             n_samples=5000, sigma=0.0, master_seed=1, out=str(tmp_path / "l"))
        )
        assert large["moment_error"] < small["moment_error"]


def _digest_at_blas_threads(code: str, threads: int, tmp_path: Path) -> str:
    """What ``code`` prints in a fresh interpreter whose OpenBLAS starts
    with ``threads`` threads; ``code`` finds an empty directory in ``OUT``
    and ``digest(path)``, the SHA-256 of a file or of a directory's files."""
    import gramphase

    src = str(Path(gramphase.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / f"threads{threads}"
    out.mkdir()
    prelude = (
        "import hashlib, io, contextlib\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        f"OUT = Path({str(out)!r})\n"
        "def digest(path):\n"
        "    h = hashlib.sha256()\n"
        "    for p in sorted(path.rglob('*')) if path.is_dir() else [path]:\n"
        "        if p.is_file():\n"
        "            h.update(p.name.encode() + b'\\0' + p.read_bytes())\n"
        "    return h.hexdigest()\n"
    )
    run = subprocess.run([sys.executable, "-c", prelude + code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    return run.stdout.strip()


class TestBlasThreadCount:
    """Complex outputs are the same bits whatever thread count OpenBLAS
    starts with: on two CPUs its threaded products and QR sum in another
    order than on one."""

    @pytest.mark.parametrize("code", [
        # a complex simulate: the moment of 500 observations
        "from gramphase.cli import parse_structure\n"
        "from gramphase.experiments import ExperimentConfig, run_simulate\n"
        "run_simulate(ExperimentConfig(experiment='simulate', n_samples=500, sigma=0.1,\n"
        "    structure=parse_structure('8x4,3x2,1x1:complex'), master_seed=3, out=str(OUT)))\n"
        "print(digest(OUT))\n",
        # the QR of a complex 1024 x 256 Gaussian basis
        "from gramphase import cyclic_structure, random_subspace_prior\n"
        "b = random_subspace_prior(cyclic_structure(1024, 'complex'), 256,\n"
        "                          np.random.default_rng(0)).basis\n"
        "print(hashlib.sha256(b.tobytes()).hexdigest())\n",
        # a complex noise sweep through the CLI, from a 256 x 64 prior
        "from gramphase.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['exp-noise', '--structure', 'cyclic:256:complex', '--K', '64', '--trials',\n"
        "          '1', '--sigma', '0.1', '--max-iters', '3', '--seed', '1',\n"
        "          '--out', str(OUT / 'noise.csv')])\n"
        "print(digest(OUT))\n",
    ], ids=["simulate", "random_subspace_prior", "cli-exp-noise"])
    def test_complex_outputs_do_not_depend_on_the_blas_thread_count(self, code, tmp_path):
        one, two = (_digest_at_blas_threads(code, t, tmp_path) for t in (1, 2))
        assert len(one) == 64 and one == two

    def test_a_split_complex_noise_sweep_is_the_whole_one(self, tmp_path):
        # two threads in OpenBLAS at once, which starts with two threads
        # of its own: neither changes the other's bits
        code = (
            "from gramphase import blocks, experiments\n"
            "from gramphase.cli import main\n"
            "def noise(tag):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        main(['exp-noise', '--structure', '8x4,3x2:complex', '--K', '3',\n"
            "              '--trials', '10', '--sigma', '0,0.01', '--max-iters', '150',\n"
            "              '--seed', '4', '--out', str(OUT / tag / 'noise.csv')])\n"
            "    return digest(OUT / tag / 'noise.csv')\n"
            "whole = noise('whole')\n"
            "blocks._workers = lambda: 2\n"
            "experiments.SPLIT_ROWS = {'real': 1, 'complex': 1}\n"
            "print(whole, noise('split'))\n"
        )
        whole, split = _digest_at_blas_threads(code, 2, tmp_path).split()
        assert len(whole) == 64 and whole == split


class TestPackage:
    def test_import_does_not_load_scipy(self):
        import gramphase

        src = str(Path(gramphase.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, gramphase; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"
