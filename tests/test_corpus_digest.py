"""The refactoring corpus (`tools/corpus_digest.py`) hashes to its pinned digest.

A change that alters any output on purpose updates `DIGEST` here and says
why; any other change must leave it as it is.
"""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "corpus_digest.py")
DIGEST = "851188a55c57508271b97316f50d29f90ac78528282b4d7461a9b6a31c9542e8"


def test_corpus_digest_is_pinned(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("corpus_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)  # `bench` writes counterexample artifacts here
    corpus = tool.build(os.path.realpath(tmp_path))
    assert corpus.counts["commands"] == 772
    assert corpus.hash.hexdigest() == DIGEST
