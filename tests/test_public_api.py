"""The names ``borrowsim`` exports, and the README's library tour on them."""

import ast
import inspect
import os
import re
import types

import pytest

import borrowsim as bs
from borrowsim import config

PUBLIC = [
    "CurrentMean", "ExternalMean", "HybridScenario", "MixturePriorSpec", "Normal", "NullBoundary",
    "OCRow", "OneArmScenario", "StudentT", "SufficientStat", "SweetSpot", "TreatmentPrior",
    "bimodality_map", "calibrated_power_no_borrowing", "one_arm_rmse", "one_arm_tie_exact",
]

# The one-point rate wrappers: a rate comes from the curve call behind it.
WRAPPERS = [
    "one_arm_tie", "one_arm_power", "one_arm_power_exact", "hybrid_tie", "hybrid_power",
    "hybrid_tie_exact", "hybrid_power_exact", "average_tie", "average_power", "sweet_spot",
    "delta_restricted_summary", "no_borrowing_power",
]

# Those, the one-point region view (a region is read off ``_exact_curve``) and
# the one-dataset object API (the tests keep what they use of it in
# mixtures.py) are gone, the one-normal component and the informative and
# location helpers with it. A design prior is an informative weight, so its
# three classes and their union are gone too.
REMOVED = WRAPPERS + [
    "Informative", "RobustMixture", "UnitInfo", "DesignPrior",
    "one_arm_rejection_region", "GaussianComponent", "build_informative", "resolve_location", "GaussianMixture",
    "conjugate_update", "gaussian_cdf", "log_marginal_likelihood", "marginal_likelihood", "mixture_cdf", "mixture_pdf", "mixture_quantile",
    "build_mixture_prior", "t_scale_matching_variance", "t_to_normal_mixture",
    "unit_information_variance", "PosteriorSummary", "posterior", "posterior_mean",
    "prob_t_not_better", "tail_probability", "BimodalityReport", "bimodality_ratio",
    "find_modes", "hpd_disjoint", "obm",
]


def test_the_public_names_are_pinned_and_the_object_api_is_gone():
    names = sorted(n for n, v in vars(bs).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == sorted(PUBLIC)
    for name in REMOVED:
        with pytest.raises(ImportError):
            exec(f"from borrowsim import {name}", {})
    for name in WRAPPERS:
        assert not hasattr(bs.onearm, name) and not hasattr(bs.hybrid, name)
    assert not hasattr(bs.onearm, "one_arm_rejection_region")


def test_the_map_takes_both_axes_and_the_schema_owns_their_defaults():
    params = inspect.signature(bs.bimodality_map).parameters.values()
    assert [p.default for p in params] == [inspect.Parameter.empty] * 3
    assert not hasattr(bs.diagnostics, "MAP_WEIGHTS") and not hasattr(bs.diagnostics, "map_biases")
    imports = [n.module for n in ast.walk(ast.parse(inspect.getsource(config)))
               if isinstance(n, ast.ImportFrom)]
    assert "diagnostics" not in imports and imports


def test_the_readme_library_tour_runs_verbatim():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^## Library quick tour\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert block is not None, "README.md has no python block under 'Library quick tour'"
    exec(compile(block.group(1), "README.md", "exec"), {})
