"""Dynamic topic model training with a blockwise Gibbs sampler:
exact Gaussian slice-mean draws, stochastic gradient Langevin dynamics
for the logistic-normal parameters, and amortized-O(1) alias-table
Metropolis-Hastings token sampling; runs in one process or as
per-time-slice worker processes exchanging boundary parameters.
"""

from .corpus import (Corpus, Document, HoldoutSplit, TimeSlice, Vocabulary,
                     build_vocabulary, load_corpus, save_corpus, split_holdout)
from .engine import TrainConfig, TrainResult, train
from .evaluation import (EvalConfig, PerplexityReport, export_trends,
                         infer_doc_eta, perplexity, top_words)
from .kernels import (AliasTable, SgldSchedule, alias_draw, build_alias_table,
                      log_sum_exp, refill_pool, rng_for, softmax, step_size)
from .model import (CountSet, Hyperparams, ModelState, SliceState,
                    accumulate_counts, init_state, load_checkpoint,
                    write_checkpoint)
from .samplers import (NeighborContext, grad_log_post_eta, grad_log_post_phi,
                       mh_sweep_document, rebuild_proposals, sample_alpha,
                       sample_tokens_exact, sgld_update_eta, sgld_update_phi)
from .synthetic import generate_synthetic

__version__ = "0.1.0"
