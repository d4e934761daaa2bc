"""Shared fixtures: the Figure 1 catalog and small generated databases."""

import logging

import pytest

from repro.schema import build_music_catalog
from repro.workloads import MusicConfig, generate_music_database


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Undo what ``configure_logging`` (run by an in-process ``serve``)
    does to the ``repro`` logger: its handlers, level and ``propagate``
    flag.  Without this, every later ``caplog`` test sees no
    ``repro.*`` records."""
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    yield
    logger.handlers[:] = saved[0]
    logger.setLevel(saved[1])
    logger.propagate = saved[2]


@pytest.fixture(scope="session")
def catalog():
    return build_music_catalog()


@pytest.fixture()
def small_db():
    """A small deterministic music database (no indices)."""
    return generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=42)
    )


@pytest.fixture()
def indexed_db():
    """A small database with the paper's physical design (path index on
    works.instruments, selection index on Composer.name)."""
    db = generate_music_database(
        MusicConfig(lineages=3, generations=7, works_per_composer=3, seed=7)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture()
def larger_db():
    """A slightly larger database for optimizer/engine integration."""
    db = generate_music_database(
        MusicConfig(
            lineages=6,
            generations=8,
            works_per_composer=3,
            instruments=16,
            selective_fraction=0.2,
            seed=1992,
        )
    )
    db.build_paper_indexes()
    return db
