"""The package namespace: each module's ``__all__`` is what ``szegolab``
exports, in module order, each name once."""

import szegolab
from szegolab import errors, gram, mc, models, spectra, szego

# every public name ``import szegolab`` exposed when the package still listed
# its exports by hand, submodules included
_EXPOSED_BEFORE = (
    "AsymmetryError", "ConvergenceFailure", "ConvergenceSchedule", "DEFAULT_SCHEDULE",
    "DegreeTooLow", "DomainExceeded", "FactorizationFailure", "GramSequence", "ModelKind",
    "NonConvergedQuadrature", "NormReport", "NotPositiveDefinite", "NumericalError", "PathBatch",
    "PowerSumResult", "RATE_COLUMNS", "RatePoint", "RateReport", "RefinementReport",
    "SamplingGrid", "SandwichPair", "SpectralModel", "SpectrumResult", "SzegolabError",
    "UsageError", "circulant_eigs", "default_domain_max", "empirical_gram", "errors",
    "gamma_sequence", "gram", "mc", "mi_levinson", "mi_logdet", "mi_schur", "models",
    "noise_variance_ratio", "norm_report", "power_sum_check", "psd_alignment_sup", "quadrature",
    "rate_convergence", "read_batch", "refinement_stability", "sample_paths",
    "sandwich_polynomials", "sandwich_rate_bounds", "spectra", "spectral_functional", "szego",
    "toeplitz_eigs", "toeplitz_matrix", "toeplitz_traces", "write_batch", "__version__",
)


def test_package_all_is_the_modules_all_then_the_version():
    modules = (errors, gram, mc, models, spectra, szego)
    want = [name for module in modules for name in module.__all__] + ["__version__"]
    assert szegolab.__all__ == want
    assert len(set(want)) == len(want)
    for module in modules:
        for name in module.__all__:
            assert getattr(szegolab, name) is getattr(module, name)


def test_every_name_exposed_before_still_resolves():
    assert [name for name in _EXPOSED_BEFORE if not hasattr(szegolab, name)] == []

