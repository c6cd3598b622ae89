"""repro — a reproduction of MetaDPA (ICDE 2022).

"Diverse Preference Augmentation with Multiple Domains for Cold-start
Recommendations" builds a three-block system: multi-source domain adaptation
with Dual Conditional VAEs, diverse preference augmentation, and preference
meta-learning with MAML.  This package implements the full system and every
substrate it needs (a numpy neural-network framework, a synthetic
multi-domain Amazon-like benchmark, seven published baselines, and the
complete evaluation protocol) with no dependency beyond numpy; SciPy is
needed only for the significance test, which imports it when it runs.

Quickstart::

    from repro import make_amazon_like_benchmark, prepare_experiment
    from repro import MetaDPA, evaluate_prepared

    dataset = make_amazon_like_benchmark(seed=0)
    experiment = prepare_experiment(dataset, "CDs", seed=0)
    results = evaluate_prepared(MetaDPA(seed=0), experiment)

README.md's "Repository layout" section is the system inventory, and its
"Reproducing the paper" section names the command behind every table and
figure.
"""

from repro.core import FitContext, Recommender
from repro.cvae import CVAEConfig, DiversePreferenceAugmenter, DualCVAE, TrainerConfig
from repro.data import (
    Domain,
    DomainSpec,
    Experiment,
    GeneratorConfig,
    MultiDomainDataset,
    Scenario,
    SyntheticMultiDomainGenerator,
    make_amazon_like_benchmark,
    prepare_experiment,
)
from repro.eval.protocol import evaluate_prepared, format_results_table
from repro.meta import MAMLConfig, MetaDPA, MetaDPAConfig
from repro.runner import GridSpec, RunStore, run_grid, table3_from_store

__version__ = "0.1.0"

__all__ = [
    "FitContext",
    "Recommender",
    "CVAEConfig",
    "DualCVAE",
    "DiversePreferenceAugmenter",
    "TrainerConfig",
    "Domain",
    "DomainSpec",
    "Experiment",
    "GeneratorConfig",
    "MultiDomainDataset",
    "Scenario",
    "SyntheticMultiDomainGenerator",
    "make_amazon_like_benchmark",
    "prepare_experiment",
    "evaluate_prepared",
    "format_results_table",
    "MAMLConfig",
    "MetaDPA",
    "MetaDPAConfig",
    "GridSpec",
    "RunStore",
    "run_grid",
    "table3_from_store",
    "__version__",
]
