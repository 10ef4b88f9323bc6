from dataclasses import fields

import pytest

from lpmax.errors import DomainError
from lpmax.estimators import (
    HomogeneousPolynomialMaximizer,
    MultilinearFormMaximizer,
    PqNormEstimator,
)
from lpmax.hpopt import HpCertificate
from lpmax.mlopt import MlCertificate
from lpmax.pqnorm import RoundedPair
from lpmax.validation import INF, lp_norm

from supersym import random_supersym


def test_get_set_params_roundtrip():
    est = MultilinearFormMaximizer(p=3.0, seed=4, trials=10)
    params = est.get_params()
    assert params["p"] == 3.0 and params["seed"] == 4 and params["trials"] == 10
    est2 = MultilinearFormMaximizer().set_params(**params)
    assert est2.get_params() == params
    with pytest.raises(ValueError):
        est.set_params(gamma=1.0)


def test_repr_lists_params():
    text = repr(PqNormEstimator(p=4.0))
    assert text.startswith("PqNormEstimator(")
    assert "p=4.0" in text


def test_ml_estimator_fit(rng):
    A = rng.standard_normal((3, 3, 3))
    est = MultilinearFormMaximizer(p=INF, seed=1, trials=16, max_samples=4).fit(A)
    assert est.value_ >= 0.0
    assert est.relax_value_ >= est.value_ / 1.783 - 1e-6
    assert len(est.xs_) == 3
    for x in est.xs_:
        assert lp_norm(x, INF) <= 1.0 + 1e-9
    assert est.score() == est.value_
    assert est.trials_used_ == 4
    assert est.certificate_.seed == 1


def test_ml_estimator_rejects_max_samples_below_one(rng):
    A = rng.standard_normal((2, 2, 2))
    with pytest.raises(DomainError):
        MultilinearFormMaximizer(p=INF, seed=1, trials=8, max_samples=0).fit(A)


def test_ml_estimator_deterministic(rng):
    A = rng.standard_normal((2, 2, 2))
    a = MultilinearFormMaximizer(p=3.0, seed=5, trials=8, max_samples=3).fit(A)
    b = MultilinearFormMaximizer(p=3.0, seed=5, trials=8, max_samples=3).fit(A)
    assert a.value_ == b.value_


def test_hp_estimator_fit(rng):
    S = random_supersym(rng, 2, 3)
    est = HomogeneousPolynomialMaximizer(p=INF, seed=0, trials=16, max_samples=4).fit(S)
    assert est.parity_ == "odd"
    assert est.value_ >= 0.0
    assert lp_norm(est.x_hat_, INF) <= 1.0 + 1e-9
    assert est.ml_value_ == est.certificate_.ml_value


def test_pqnorm_estimator_fit(rng):
    B = rng.standard_normal((4, 4))
    est = PqNormEstimator(p=INF, seed=0, trials=60).fit(B)
    assert est.value_ <= est.relax_value_ + 1e-9
    assert est.value_ >= est.relax_value_ / 1.783 - 1e-6
    assert est.y_ @ B @ est.z_ == pytest.approx(est.value_, rel=1e-12)
    assert est.score() == est.value_


def test_unfitted_score_raises():
    with pytest.raises(RuntimeError):
        MultilinearFormMaximizer().score()
    with pytest.raises(RuntimeError):
        PqNormEstimator().score()


def test_default_p_matches_fit_domain(rng):
    # default p = 2.5 sits inside the supported open interval
    B = rng.standard_normal((2, 2))
    est = PqNormEstimator(trials=8).fit(B)
    assert est.value_ >= 0.0


def test_fitted_attributes_are_the_certificate_fields(rng):
    fitted = [(MultilinearFormMaximizer(p=INF, seed=1, trials=8, max_samples=3)
               .fit(rng.standard_normal((2, 2, 2))), MlCertificate, set()),
              (HomogeneousPolynomialMaximizer(p=INF, seed=1, trials=8, max_samples=3)
               .fit(random_supersym(rng, 2, 3)), HpCertificate, set()),
              (PqNormEstimator(p=INF, seed=1, trials=8).fit(rng.standard_normal((3, 3))),
               RoundedPair, {"gram_", "relax_value_"})]
    for est, kind, extra in fitted:
        cert = est.certificate_
        assert isinstance(cert, kind)
        want = {f.name + "_" for f in fields(kind)} | {"certificate_"} | extra
        assert {key for key in vars(est) if key.endswith("_")} == want
        for f in fields(kind):
            assert getattr(est, f.name + "_") is getattr(cert, f.name)
    assert est.relax_value_ == est.gram_.value
