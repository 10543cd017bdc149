"""Learning binary classifiers from unlabeled pairs with similarity confidence.

The library covers: synthetic Gaussian data generation with exact pairwise
similarity confidence (datagen), the unbiased pair risk and its corrected and
one-sided variants (risk), hand-rolled linear/MLP models with exact
backpropagation (model), Adam with a step schedule (optim), the one
minibatch loop and an ERM trainer with risk-based model selection (trainer),
class-prior estimation from the confidence mean (prior), IDX dataset loading
and binary corruption (dataset_io), the synthetic experiment protocols
(experiments), and atomic writes, the CSV writer and key=value parsing
(fileio). The command-line harness lives in sconf.cli.
"""

from .datagen import (GaussianSetup, LabeledData, SconfDataset, SynthSpec,
                      add_confidence_noise, load_setup_file, make_pairs, parse_setup,
                      posterior_plus, preset, preset_synth, sample_labeled,
                      sample_train_test, similarity_confidence)
from .errors import BalancedPriorError, ConfigError, DataError, NonFiniteRiskError, SconfError
from .losses import loss_derivative, loss_value
from .model import Architecture, Predictor, backward, forward, init, load_checkpoint, save_checkpoint
from .optim import AdamState, effective_lr, step
from .prior import PriorEstimate, estimate_prior, invert_pair_mean
from .risk import (PartialRisks, RiskSpec, pair_risk, pair_weights, partial_risks,
                   risk_gradient_weights, supervised_risk, total_risk)
from .trainer import TrainConfig, TrainReport, evaluate, train

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
