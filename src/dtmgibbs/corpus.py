"""Corpus loading, vocabulary construction and held-out splits.

The on-disk training format is one document per line::

    timestamp-key<TAB>token token token ...

Time slices are the distinct timestamp keys in ascending order (numeric
when every key parses as an integer, with ties such as ``01`` and ``1``
broken by the key string; lexicographic otherwise).  All types here are
immutable after construction, token arrays included, and safe to share
read-only, for example with forked worker processes.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import filterfalse, repeat
from pathlib import Path

import numpy as np

from .kernels import rng_for

logger = logging.getLogger(__name__)

SLICE_PER_LINE = "slice-per-line"
BAG_OF_WORDS_DIR = "bag-of-words-dir"


class CorpusFormatError(ValueError):
    """Raised for malformed corpus files; message names the offending line."""


@dataclass(frozen=True)
class Vocabulary:
    """Dense bijection between terms and ids in [0, V)."""

    terms: tuple
    index: dict = field(repr=False)

    @staticmethod
    def from_terms(terms) -> "Vocabulary":
        terms = tuple(terms)
        if not terms:
            raise ValueError("vocabulary must not be empty")
        index = {t: i for i, t in enumerate(terms)}
        if len(index) != len(terms):
            raise ValueError("duplicate terms in vocabulary")
        return Vocabulary(terms, index)

    @property
    def size(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class Document:
    tokens: np.ndarray  # int32 word ids
    doc_id: str

    def __len__(self) -> int:
        return int(self.tokens.shape[0])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Document) and self.doc_id == other.doc_id
                and np.array_equal(self.tokens, other.tokens))


@dataclass(frozen=True)
class TimeSlice:
    slice_index: int  # 1-based, contiguous
    docs: tuple

    @property
    def n_docs(self) -> int:
        return len(self.docs)

    @property
    def n_tokens(self) -> int:
        return sum(len(d) for d in self.docs)


@dataclass(frozen=True)
class Corpus:
    vocabulary: Vocabulary
    slices: tuple

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    @property
    def n_docs(self) -> int:
        return sum(s.n_docs for s in self.slices)

    @property
    def n_tokens(self) -> int:
        return sum(s.n_tokens for s in self.slices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.vocabulary.terms == other.vocabulary.terms
                and len(self.slices) == len(other.slices)
                and all(a.slice_index == b.slice_index and a.docs == b.docs
                        for a, b in zip(self.slices, other.slices)))


@dataclass(frozen=True)
class TestDocument:
    """A test document split into an observed and a held-out part."""

    slice_index: int
    doc_id: str
    observed: np.ndarray
    heldout: np.ndarray


@dataclass(frozen=True)
class HoldoutSplit:
    train: Corpus
    test: tuple  # of TestDocument
    unsplittable_docs: int  # single-token docs kept fully observed


@dataclass
class LoadReport:
    docs_read: int = 0
    tokens_read: int = 0
    tokens_dropped: int = 0

    def __str__(self) -> str:
        return (f"read {self.docs_read} docs / {self.tokens_read} tokens, "
                f"dropped {self.tokens_dropped} out-of-vocabulary tokens")


def build_vocabulary(raw_docs, max_terms: int, stopwords=()) -> Vocabulary:
    """Top ``max_terms`` terms by corpus frequency, stopwords removed.

    Ties are broken lexicographically so the ranking is total.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    stop = set(stopwords)
    counts = Counter()
    for doc in raw_docs:
        counts.update(filterfalse(stop.__contains__, doc) if stop else doc)
    if not counts:
        raise ValueError("no tokens left after stopword filtering")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary.from_terms(t for t, _ in ranked[:max_terms])


def _sorted_keys(keys):
    try:
        return sorted(keys, key=lambda k: (int(k), k))
    except ValueError:
        return sorted(keys)


def load_corpus(path, fmt: str = SLICE_PER_LINE, *, vocabulary: Vocabulary | None = None,
                max_terms: int | None = None, stopwords=(), report_sink=None) -> Corpus:
    """Load a corpus file or directory into time-sliced token id arrays.

    With ``fmt="slice-per-line"`` the vocabulary is built from the file
    by frequency (capped at ``max_terms`` if given) unless an explicit
    ``vocabulary`` is passed, in which case out-of-vocabulary tokens are
    dropped and tallied in the load report.  ``fmt="bag-of-words-dir"``
    expects a directory with ``vocab.txt`` (one term per line) and
    ``docs.txt`` (``timestamp-key<TAB>id id id ...``); an id outside
    [0, V) there is an error, not a drop.

    Every ``Document.tokens`` is a read-only view of one int32 buffer.
    The load report goes to ``report_sink`` (a callable) or the module
    logger.
    """
    path = Path(path)
    if fmt == SLICE_PER_LINE:
        corpus, report = _load_slice_per_line(path, vocabulary, max_terms, stopwords)
    elif fmt == BAG_OF_WORDS_DIR:
        corpus, report = _load_bag_of_words_dir(path)
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")
    if report_sink is not None:
        report_sink(report)
    else:
        logger.info("load_corpus(%s): %s", path, report)
    return corpus


def _parse_lines(path: Path):
    """(keys, per-line token counts, all tokens in file order) of the
    non-blank ``key<TAB>tokens`` lines."""
    keys, counts, flat = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise CorpusFormatError(f"{path}:{lineno}: expected 'key<TAB>tokens'")
            key, rest = line.split("\t", 1)
            toks = rest.split()
            if not key or not toks:
                raise CorpusFormatError(f"{path}:{lineno}: empty key or token list")
            keys.append(key)
            counts.append(len(toks))
            flat.extend(toks)
    if not keys:
        raise CorpusFormatError(f"{path}: empty corpus")
    return keys, counts, flat


def _group_slices(keys, counts, ids: np.ndarray):
    """Cut ``ids`` into one read-only document per line (``counts[i]``
    tokens each) and group the lines into slices sorted by key."""
    ids.flags.writeable = False
    ends = np.cumsum(counts).tolist()
    order = {k: i + 1 for i, k in enumerate(_sorted_keys(set(keys)))}
    grouped: dict[int, list] = {i: [] for i in order.values()}
    for key, start, end in zip(keys, [0] + ends[:-1], ends):
        grouped[order[key]].append(ids[start:end])
    return tuple(
        TimeSlice(slice_index=t, docs=tuple(Document(tokens=tokens, doc_id=f"{t}:{j}")
                                            for j, tokens in enumerate(docs)))
        for t, docs in grouped.items())


def _load_slice_per_line(path, vocabulary, max_terms, stopwords):
    keys, counts, flat = _parse_lines(path)
    report = LoadReport(docs_read=len(keys), tokens_read=len(flat))
    if vocabulary is None:
        vocabulary = build_vocabulary(
            [flat], max_terms if max_terms is not None else report.tokens_read, stopwords)
    ids = np.fromiter(map(vocabulary.index.get, flat, repeat(-1)),
                      dtype=np.int32, count=len(flat))
    known = ids >= 0
    report.tokens_dropped = len(flat) - int(np.count_nonzero(known))
    if report.tokens_dropped:
        counts = np.add.reduceat(known, np.cumsum([0] + counts[:-1]), dtype=np.int64)
        ids = ids[known]
    return Corpus(vocabulary=vocabulary, slices=_group_slices(keys, counts, ids)), report


def _first_bad_id(flat, v: int, docs_file):
    """Raise the format error for the first token in file order that is
    not an integer id in [0, v)."""
    for tok in flat:
        try:
            wid = int(tok)
        except ValueError:
            raise CorpusFormatError(f"{docs_file}: non-integer token id {tok!r}") from None
        if not 0 <= wid < v:
            raise CorpusFormatError(f"{docs_file}: unknown token id {wid} (V={v})")


def _load_bag_of_words_dir(path: Path):
    vocab_file = path / "vocab.txt"
    docs_file = path / "docs.txt"
    if not vocab_file.is_file() or not docs_file.is_file():
        raise CorpusFormatError(f"{path}: expected vocab.txt and docs.txt")
    with open(vocab_file, "r", encoding="utf-8") as fh:
        terms = [ln.strip() for ln in fh]
    while terms and not terms[-1]:   # trailing blank lines assign no id
        terms.pop()
    if "" in terms:
        raise CorpusFormatError(f"{vocab_file}:{terms.index('') + 1}: blank line "
                                f"before a term (line number = id)")
    vocabulary = Vocabulary.from_terms(terms)
    v = vocabulary.size

    keys, counts, flat = _parse_lines(docs_file)
    report = LoadReport(docs_read=len(keys), tokens_read=len(flat))
    try:
        ids = np.fromiter(map(int, flat), dtype=np.int32, count=len(flat))
        in_range = bool(np.all((ids >= 0) & (ids < v)))
    except (ValueError, OverflowError):  # a non-integer, or an id past int32
        in_range = False
    if not in_range:
        _first_bad_id(flat, v, docs_file)
    return Corpus(vocabulary=vocabulary, slices=_group_slices(keys, counts, ids)), report


def save_corpus(corpus: Corpus, path) -> None:
    """Write the slice-per-line form; reloading round-trips the corpus."""
    with open(path, "w", encoding="utf-8") as fh:
        for sl in corpus.slices:
            for doc in sl.docs:
                toks = " ".join(corpus.vocabulary.terms[i] for i in doc.tokens)
                fh.write(f"{sl.slice_index}\t{toks}\n")


def split_holdout(corpus: Corpus, test_doc_fraction: float,
                  heldout_token_fraction: float, seed: int) -> HoldoutSplit:
    """Partition into a train corpus and partially observed test documents.

    Per slice, ceil(test_doc_fraction * D_t) documents are chosen
    uniformly; each test document's tokens are shuffled and split at
    heldout_token_fraction (rounded to the nearest token).  Single-token
    documents cannot be split and stay fully observed (counted in
    ``unsplittable_docs``).  Deterministic for a fixed seed.
    """
    if not (0 < test_doc_fraction < 1 and 0 < heldout_token_fraction < 1):
        raise ValueError("fractions must lie in (0, 1)")
    for sl in corpus.slices:
        if sl.n_docs < 1:
            raise ValueError(f"slice {sl.slice_index} has no documents")

    train_slices = []
    test_docs = []
    unsplittable = 0
    for sl in corpus.slices:
        d_t = sl.n_docs
        n_test = int(np.ceil(test_doc_fraction * d_t))
        picked = rng_for(seed, "split-docs", sl.slice_index).choice(d_t, size=n_test, replace=False)
        picked_set = set(int(i) for i in picked)
        kept = tuple(doc for j, doc in enumerate(sl.docs) if j not in picked_set)
        train_slices.append(TimeSlice(slice_index=sl.slice_index, docs=kept))
        for j in sorted(picked_set):
            doc = sl.docs[j]
            n = len(doc)
            if n <= 1:
                unsplittable += 1
                test_docs.append(TestDocument(sl.slice_index, doc.doc_id,
                                              doc.tokens.copy(),
                                              np.empty(0, dtype=np.int32)))
                continue
            n_held = int(round(heldout_token_fraction * n))
            n_held = min(max(n_held, 0), n - 1)
            perm = rng_for(seed, "split-tokens", sl.slice_index, j).permutation(n)
            shuffled = doc.tokens[perm]
            test_docs.append(TestDocument(sl.slice_index, doc.doc_id,
                                          np.ascontiguousarray(shuffled[n_held:]),
                                          np.ascontiguousarray(shuffled[:n_held])))
    if unsplittable:
        logger.info("split_holdout: %d single-token test docs kept fully observed",
                    unsplittable)
    train = Corpus(vocabulary=corpus.vocabulary, slices=tuple(train_slices))
    return HoldoutSplit(train=train, test=tuple(test_docs), unsplittable_docs=unsplittable)
