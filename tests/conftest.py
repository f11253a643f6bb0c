"""Session fixtures: the world, codec, encoders, oracles and training plan
that `synthvc` builds at the default configuration, shared by module tests
and the acceptance suite.

Every value comes from one `RunConfig()`: the fixtures read `cfg[...]` and
use the CLI's own mappers, so this stack is the one the CLI would build and
no default is restated here. A variant is `dataclasses.replace` of a
default object, or a `RunConfig` with the changed keys."""

import dataclasses

import pytest

from synthvc import cli
from synthvc import codec as cd
from synthvc import encoders as en
from synthvc import evaluation as ev
from synthvc import trainer as tr
from synthvc.config import RunConfig


@pytest.fixture(scope="session")
def cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def splits(cfg):
    return cli._world(cfg)


@pytest.fixture(scope="session")
def codec(cfg, splits):
    frames = cd.build_fit_corpus(splits, parallel_per_utt=cfg["codec.parallel_per_utt"],
                                 degraded_per_utt=cfg["codec.degraded_per_utt"],
                                 seed=cfg["codec.seed"])
    return cd.fit_codebooks(frames, n=cfg["codec.layers"], k=cfg["codec.codebook"],
                            iters=cfg["codec.iters"], seed=cfg["codec.seed"])


@pytest.fixture(scope="session")
def sem_enc(cfg, splits):
    return en.pretrain_semantic_encoder(splits, steps=cfg["enc.sem_steps"],
                                        batch=cfg["enc.batch"], lr=cfg["enc.lr"],
                                        seed=cfg["enc.seed"], width=cfg["enc.sem_dim"])


@pytest.fixture(scope="session")
def spk_enc(cfg, splits):
    return en.pretrain_speaker_encoder(splits, steps=cfg["enc.spk_steps"],
                                       batch=cfg["enc.batch"], lr=cfg["enc.lr"],
                                       seed=cfg["enc.seed"], width=cfg["enc.spk_dim"])


@pytest.fixture(scope="session")
def verifier(cfg, splits):
    return ev.train_oracle_verifier(splits, steps=cfg["oracle.verifier_steps"],
                                    seed=cfg["oracle.seed"])


@pytest.fixture(scope="session")
def transcriber(cfg, splits):
    return ev.train_oracle_transcriber(splits, steps=cfg["oracle.transcriber_steps"],
                                       seed=cfg["oracle.seed"])


@pytest.fixture(scope="session")
def eval_pairs(cfg, splits):
    return cli._eval_pairs(cfg, splits)


@pytest.fixture(scope="session")
def lm_cfg(cfg, codec):
    return cli._lm_cfg(cfg, codec)


@pytest.fixture(scope="session")
def context(splits, codec, sem_enc, spk_enc, lm_cfg, verifier, transcriber, eval_pairs):
    return tr.PipelineContext(splits, codec, sem_enc, spk_enc, lm_cfg, verifier=verifier,
                              transcriber=transcriber, eval_pairs=eval_pairs)


@pytest.fixture(scope="session")
def bare_context(splits, codec, sem_enc, spk_enc, lm_cfg):
    """Context without oracles, for trainer mechanics tests."""
    return tr.PipelineContext(splits, codec, sem_enc, spk_enc, lm_cfg)


@pytest.fixture(scope="session")
def default_plan(cfg):
    return cli._plan(cfg)


@pytest.fixture(scope="session")
def default_run(context, default_plan):
    """The full default training run; the acceptance headline artifact."""
    return tr.run_pipeline(context, default_plan)


@pytest.fixture(scope="session")
def rerun_run(splits, codec, sem_enc, spk_enc, lm_cfg, verifier, transcriber, eval_pairs,
              default_plan):
    """Second full run with the same seed, on a fresh context (fresh caches)."""
    ctx = tr.PipelineContext(splits, codec, sem_enc, spk_enc, lm_cfg, verifier=verifier,
                             transcriber=transcriber, eval_pairs=eval_pairs)
    return tr.run_pipeline(ctx, default_plan)


@pytest.fixture(scope="session")
def ablation_run(splits, codec, sem_enc, spk_enc, lm_cfg, verifier, transcriber, eval_pairs,
                 default_plan):
    """Same schedule and seed with the text stream's loss weight zeroed."""
    ctx = tr.PipelineContext(splits, codec, sem_enc, spk_enc, lm_cfg, verifier=verifier,
                             transcriber=transcriber, eval_pairs=eval_pairs)
    return tr.run_pipeline(ctx, dataclasses.replace(default_plan, text_loss_scale=0.0))
