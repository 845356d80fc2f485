import numpy as np
import pytest

from gramphase import (
    LinearSubspacePrior,
    RepresentationStructure,
    SparsityPrior,
    SupportPrior,
    cyclic_structure,
    full_ambiguity_action,
    gram_tuple,
    random_signal,
    sample_observations,
)
from gramphase import serialize as ser
from gramphase.cli import main


def test_structure_roundtrip():
    for s in (
        RepresentationStructure(((8, 4),)),
        cyclic_structure(7, "real"),
        RepresentationStructure(((2, 1), (3, 3)), "complex"),
    ):
        d = ser.structure_to_dict(s)
        assert set(d) == {"field", "blocks"}
        assert ser.structure_from_dict(d) == s


def test_signal_and_gram_roundtrip(tmp_path):
    for field in ("real", "complex"):
        s = RepresentationStructure(((3, 2), (1, 1)), field)
        x = random_signal(s, np.random.default_rng(0))
        path = tmp_path / f"sig_{field}.json"
        ser.save_json(path, ser.signal_to_dict(x))
        back = ser.signal_from_dict(ser.load_json(path))
        for a, b in zip(x.matrices, back.matrices):
            np.testing.assert_array_equal(a, b)
        g = gram_tuple(x)
        back_g = ser.gram_from_dict(ser.gram_to_dict(g))
        for a, b in zip(g.grams, back_g.grams):
            np.testing.assert_array_equal(a, b)


def test_prior_roundtrip():
    basis = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 2)))[0]
    priors = [
        LinearSubspacePrior(basis),
        SparsityPrior(3),
        SparsityPrior(2, dictionary=np.eye(6)),
        SupportPrior(np.array([True, False, True])),
    ]
    for p in priors:
        q = ser.prior_from_dict(ser.prior_to_dict(p))
        assert type(q) is type(p)
    q = ser.prior_from_dict(ser.prior_to_dict(priors[0]))
    np.testing.assert_array_equal(q.basis, basis)


@pytest.mark.parametrize("load, d, match", [
    (ser.structure_from_dict, {"field": "real"},
     r"structure has no 'blocks' key: expected a list of \[n, r\] pairs"),
    (ser.structure_from_dict, {"blocks": [[8]]},
     r"structure blocks must be a list of \[n, r\] pairs, .*got \[\[8\]\]"),
    (ser.structure_from_dict, {"blocks": 8},
     r"structure blocks must be a list of \[n, r\] pairs, .*got 8"),
    (ser.structure_from_dict, [[8, 4]], r"structure has no .blocks. key"),
    (ser.gram_from_dict, {"grams": [[[1.0]]]}, r"Gram tuple has no 'structure' key"),
    (ser.gram_from_dict, {"structure": {"blocks": [[1, 1]]}}, r"Gram tuple has no 'grams' key"),
    (ser.signal_from_dict, {"structure": {"blocks": [[1, 1]]}}, r"signal has no 'matrices' key"),
    (ser.signal_from_dict, {"structure": {"blocks": [[1, 1]]}, "matrices": [{"re": [[1.0]]}]},
     r"complex array has no 'im' key"),
    (ser.prior_from_dict, {"basis": [[1.0]]},
     r"prior has no 'variant' key: expected 'linear_subspace', 'sparsity' or 'support'"),
    (ser.prior_from_dict, {"variant": "linear_subspace"},
     r"linear_subspace prior has no 'basis' key"),
    (ser.prior_from_dict, {"variant": "sparsity"}, r"sparsity prior has no 'k' key"),
    (ser.prior_from_dict, {"variant": "support"}, r"support prior has no 'mask' key"),
    (ser.structure_from_dict, {"blocks": [[8, 4.5]]},
     r"block sizes must be whole numbers, got \[8, 4.5\]"),
    (ser.prior_from_dict, {"variant": "sparsity", "k": 2.5},
     r"sparsity level k must be a whole number >= 1, got 2.5"),
    (ser.prior_from_dict, {"variant": "sparsity", "k": True},
     r"sparsity level k must be a whole number >= 1, got True"),
])
def test_malformed_dicts_name_the_key_and_its_form(load, d, match):
    with pytest.raises(ValueError, match=match):
        load(d)


@pytest.mark.parametrize("argv, match", [
    (["--structure", '{"blocks": [[8]]}'], "structure blocks must be a list of [n, r] pairs"),
    (["--structure", "[[8]]"], "structure blocks must be a list of [n, r] pairs"),
    (["--structure", "8x4,3"], "structure blocks must be a list of [n, r] pairs"),
    (["--config", "CFG"], "structure has no 'blocks' key"),
    (["--structure", '{"blocks": [[8, 4.5]]}'], "block sizes must be whole numbers, got [8, 4.5]"),
    (["--structure", "[[8, 4.5]]"], "block sizes must be whole numbers, got [8, 4.5]"),
    (["--structure", "8x4.5"], "block sizes must be whole numbers, got [8, 4.5]"),
    (["--structure", "8.7x4:complex"], "block sizes must be whole numbers, got [8.7, 4]"),
])
def test_cli_names_a_malformed_structure(tmp_path, capsys, argv, match):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"structure": {"field": "real"}}')
    assert main(["bilipschitz"] + [str(cfg) if a == "CFG" else a for a in argv]) == 1
    assert match in capsys.readouterr().err


def test_cli_names_a_prior_file_without_variant(tmp_path, capsys):
    s = RepresentationStructure(((2, 1),))
    x = random_signal(s, np.random.default_rng(0))
    ser.save_json(tmp_path / "g.json", ser.gram_to_dict(gram_tuple(x)))
    ser.save_json(tmp_path / "p.json", {"basis": [[1.0], [0.0]]})
    code = main(["solve", "--gram", str(tmp_path / "g.json"), "--prior", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "prior has no 'variant' key" in capsys.readouterr().err


def test_cli_names_a_fractional_sparsity_level(tmp_path, capsys):
    s = RepresentationStructure(((2, 1),))
    x = random_signal(s, np.random.default_rng(0))
    ser.save_json(tmp_path / "g.json", ser.gram_to_dict(gram_tuple(x)))
    ser.save_json(tmp_path / "p.json", {"variant": "sparsity", "k": 2.5})
    code = main(["solve", "--gram", str(tmp_path / "g.json"), "--prior", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "sparsity level k must be a whole number >= 1, got 2.5" in capsys.readouterr().err


def test_cli_refuses_a_complex_gram_file_on_a_real_structure(tmp_path, capsys):
    # the imaginary parts were once dropped with only a ComplexWarning
    g = {"structure": {"field": "real", "blocks": [[2, 2]]},
         "grams": [ser.array_to_json(np.array([[2.0, 1j], [-1j, 2.0]]))]}
    ser.save_json(tmp_path / "g.json", g)
    ser.save_json(tmp_path / "p.json", ser.prior_to_dict(LinearSubspacePrior(np.eye(4)[:, :2])))
    code = main(["solve", "--gram", str(tmp_path / "g.json"), "--prior", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "complex data passed to a real-field structure" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_sparsity_level_loads_as_int():
    p = ser.prior_from_dict({"variant": "sparsity", "k": 3.0})
    assert p.k == 3 and type(p.k) is int


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    real = rng.standard_normal((4, 3))
    cplx = real + 1j * rng.standard_normal((4, 3))
    for name, m in (("r.csv", real), ("c.csv", cplx)):
        path = tmp_path / name
        ser.write_matrix_csv(path, m, comments=["unit=test"])
        back = ser.read_matrix_csv(path)
        np.testing.assert_array_equal(back, m)
        header, _, comments = ser.read_csv(path)
        assert comments == ["unit=test"]


def test_matrix_csv_bytes(tmp_path):
    real = np.array([[-0.0, np.nan, np.inf], [1e-300, 0.1, -2.0]])
    cplx = np.empty(real.shape, dtype=complex)
    cplx.real, cplx.imag = real, real[::-1]
    cases = (
        (real, "c0,c1,c2\n-0.0,nan,inf\n1e-300,0.1,-2.0\n"),
        (cplx, "c0_re,c0_im,c1_re,c1_im,c2_re,c2_im\n"
               "-0.0,1e-300,nan,0.1,inf,-2.0\n1e-300,-0.0,0.1,nan,-2.0,inf\n"),
        (np.array([[1, 0]]), "c0,c1\n1.0,0.0\n"),
        (np.zeros((0, 3)), "c0,c1,c2\n"),
    )
    for m, text in cases:
        path = tmp_path / "m.csv"
        ser.write_matrix_csv(path, m, comments=["unit=test"])
        assert path.read_text() == "# unit=test\n" + text
        back = ser.read_matrix_csv(path)
        # bitwise, so the sign of zero and the NaNs survive too
        assert back.shape == m.shape
        assert back.tobytes() == m.astype(back.dtype).tobytes()


def test_basis_loadable_from_csv(tmp_path):
    basis = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 2)))[0]
    path = tmp_path / "basis.csv"
    ser.write_matrix_csv(path, basis)
    prior = LinearSubspacePrior(ser.read_matrix_csv(path))
    np.testing.assert_array_equal(prior.basis, basis)


def test_samples_csv(tmp_path):
    s = RepresentationStructure(((2, 2),))
    x = random_signal(s, np.random.default_rng(4))
    samples = sample_observations(x, full_ambiguity_action(s), 0.1, 7, seed=5)
    path = tmp_path / "samples.csv"
    ser.write_samples_csv(path, samples)
    back = ser.read_matrix_csv(path)
    np.testing.assert_array_equal(back, samples.observations)
    _, _, comments = ser.read_csv(path)
    assert any(c.startswith("sigma=0.1") for c in comments)
    assert any(c.startswith("n=7") for c in comments)


def test_csv_bytes_are_reproducible(tmp_path):
    rows = [{"a": 0.1 + 0.2, "b": 3, "c": True}, {"a": 1e-17, "b": -1, "c": False}]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ser.write_csv(p1, ["a", "b", "c"], rows, comments=["h=x"])
    ser.write_csv(p2, ["a", "b", "c"], rows, comments=["h=x"])
    assert p1.read_bytes() == p2.read_bytes()
    # shortest roundtrip float text survives parsing
    header, parsed, _ = ser.read_csv(p1)
    assert float(parsed[0][0]) == 0.1 + 0.2
