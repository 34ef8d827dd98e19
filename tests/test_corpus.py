import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import load_corpus_long_form

from dtmgibbs.corpus import (BAG_OF_WORDS_DIR, CorpusFormatError, LoadReport,
                             Vocabulary, build_vocabulary, load_corpus,
                             save_corpus, split_holdout)


class TestBuildVocabulary:
    def test_frequency_order_with_stopwords(self):
        v = build_vocabulary([["a", "a", "b", "c"]], max_terms=2, stopwords={"c"})
        assert v.terms == ("a", "b")

    def test_cap_larger_than_terms(self):
        v = build_vocabulary([["x", "y"]], max_terms=5)
        assert v.size == 2

    def test_lexicographic_tie_break(self):
        v = build_vocabulary([["b", "a"]], max_terms=10)
        # oracle: exhaustive sort on (-count, term)
        expected = tuple(t for t, _ in sorted({"a": 1, "b": 1}.items(),
                                              key=lambda kv: (-kv[1], kv[0])))
        assert v.terms == expected == ("a", "b")

    def test_all_filtered_is_error(self):
        with pytest.raises(ValueError):
            build_vocabulary([["the", "of"]], max_terms=5, stopwords={"the", "of"})

    def test_bijection(self):
        v = build_vocabulary([["q", "r", "s", "q"]], max_terms=3)
        for i, t in enumerate(v.terms):
            assert v.index[t] == i
        assert len(set(v.terms)) == v.size


class TestLoadCorpus:
    def test_basic_parse(self, tiny_corpus_file):
        c = load_corpus(tiny_corpus_file)
        assert c.vocabulary.terms == ("a", "b", "c")  # freq a=2,b=2,c=1; tie a<b
        assert c.n_slices == 2
        np.testing.assert_array_equal(c.slices[0].docs[0].tokens, [0, 1, 0])
        np.testing.assert_array_equal(c.slices[1].docs[0].tokens, [1, 2])

    def test_empty_file_is_error(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="empty corpus"):
            load_corpus(p)

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1\ta b\nno-tab-here\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_corpus(p)

    def test_nonmonotone_timestamps_sorted(self, tmp_path):
        p = tmp_path / "shuffled.txt"
        p.write_text("3\tc c\n1\ta\n2\tb b b\n1\ta a\n", encoding="utf-8")
        c = load_corpus(p)
        # reference parser: group lines by key, sort keys ascending
        assert [s.slice_index for s in c.slices] == [1, 2, 3]
        assert [s.n_docs for s in c.slices] == [2, 1, 1]
        assert c.n_docs == 4

    def test_numeric_key_ordering(self, tmp_path):
        p = tmp_path / "numeric.txt"
        p.write_text("10\ta\n2\tb\n", encoding="utf-8")
        c = load_corpus(p)
        # numeric sort puts key 2 first, not lexicographic "10"
        assert c.slices[0].docs[0].tokens[0] == c.vocabulary.index["b"]

    def test_oov_dropped_and_reported(self, tiny_corpus_file):
        reports = []
        vocab = build_vocabulary([["a", "b"]], max_terms=2)
        c = load_corpus(tiny_corpus_file, vocabulary=vocab,
                        report_sink=reports.append)
        assert isinstance(reports[0], LoadReport)
        assert reports[0].docs_read == 2
        assert reports[0].tokens_dropped == 1  # the 'c'
        np.testing.assert_array_equal(c.slices[1].docs[0].tokens, [1])

    def test_bag_of_words_dir(self, tmp_path):
        d = tmp_path / "bow"
        d.mkdir()
        (d / "vocab.txt").write_text("apple\nbanana\n", encoding="utf-8")
        (d / "docs.txt").write_text("1\t0 1 0\n2\t1\n", encoding="utf-8")
        c = load_corpus(d, BAG_OF_WORDS_DIR)
        assert c.vocabulary.terms == ("apple", "banana")
        np.testing.assert_array_equal(c.slices[0].docs[0].tokens, [0, 1, 0])

    def test_bag_of_words_unknown_id_is_error(self, tmp_path):
        d = tmp_path / "bow"
        d.mkdir()
        (d / "vocab.txt").write_text("apple\n", encoding="utf-8")
        (d / "docs.txt").write_text("1\t0 3\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="unknown token id"):
            load_corpus(d, BAG_OF_WORDS_DIR)

    @pytest.mark.parametrize("ids, message", [
        ("0 x", "non-integer token id 'x'"),
        ("0 -1", r"unknown token id -1 \(V=2\)"),
        ("0 7 x", r"unknown token id 7 \(V=2\)"),
        ("0 x 7", "non-integer token id 'x'"),
    ])
    def test_bag_of_words_first_bad_token_decides_error(self, tmp_path, ids, message):
        d = tmp_path / "bow"
        d.mkdir()
        (d / "vocab.txt").write_text("apple\nbanana\n", encoding="utf-8")
        (d / "docs.txt").write_text(f"1\t0 1\n2\t{ids}\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=message):
            load_corpus(d, BAG_OF_WORDS_DIR)

    def test_equal_integer_keys_ordered_by_string(self, tmp_path):
        """Keys equal as integers stay distinct slices, ordered by the key
        string, under any hash seed."""
        p = tmp_path / "ties.txt"
        p.write_text("1\tone\n01\tzero-one\n001\tzero-zero-one\n", encoding="utf-8")
        script = ("import sys; from dtmgibbs.corpus import load_corpus; "
                  "c = load_corpus(sys.argv[1]); "
                  "print(' '.join(c.vocabulary.terms[s.docs[0].tokens[0]] for s in c.slices))")
        for hash_seed in range(6):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
            out = subprocess.run([sys.executable, "-c", script, str(p)], env=env,
                                 capture_output=True, text=True, check=True).stdout
            assert out.split() == ["zero-zero-one", "zero-one", "one"]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "orig.txt"
        p.write_text("2\tb c b\n1\ta a b\n1\tc\n", encoding="utf-8")
        c1 = load_corpus(p)
        out = tmp_path / "saved.txt"
        save_corpus(c1, out)
        c2 = load_corpus(out)
        assert c1 == c2


TERMS = ("apple", "banana", "cherry", "date", "elder", "fig", "grape", "hop")
UNICODE_TERMS = ("café", "naïve", "日本", "straße", "ωμέγα", "emoji-🙂", "x")


def _write_random_corpus(path, rng, keys, terms, *, n_docs=40, messy=False,
                         oov_doc=None):
    """A seeded random slice-per-line file; ``messy`` adds blank lines,
    CRLF endings and tabs inside the token lists; ``oov_doc`` is a line
    appended with every token from that list."""
    lines = []
    for _ in range(n_docs):
        toks = [terms[i] for i in rng.integers(0, len(terms), size=rng.integers(1, 12))]
        sep = "\t" if messy and rng.random() < 0.3 else " "
        lines.append(f"{keys[rng.integers(0, len(keys))]}\t{sep.join(toks)}")
        if messy and rng.random() < 0.2:
            lines.append("")
    if oov_doc is not None:
        lines.append(f"{keys[0]}\t{' '.join(oov_doc)}")
    end = "\r\n" if messy else "\n"
    path.write_bytes(end.join(lines).encode("utf-8") + end.encode())


CASES = {
    "plain": {},
    "stopwords": {"stopwords": {"banana", "fig"}},
    "max_terms": {"max_terms": 3},
    "explicit_vocab_oov": {"vocabulary": ("cherry", "apple", "hop"),
                           "oov_doc": ("banana", "date")},
    "messy_lines": {"messy": True},
    "unicode": {"terms": UNICODE_TERMS},
    "text_keys": {"keys": ("beta", "alpha", "gamma", "10")},
    "bag_of_words": {"fmt": BAG_OF_WORDS_DIR},
}


class TestLoadMatchesLongForm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_oracle(self, tmp_path, case, seed):
        opts = dict(CASES[case])
        rng = np.random.default_rng(seed)
        fmt = opts.pop("fmt", "slice-per-line")
        keys = opts.pop("keys", ("3", "1", "12", "2"))
        terms = opts.pop("terms", TERMS)
        kwargs = {}
        if fmt == BAG_OF_WORDS_DIR:
            path = tmp_path / "bow"
            path.mkdir()
            (path / "vocab.txt").write_text("\n".join(terms) + "\n", encoding="utf-8")
            _write_random_corpus(path / "docs.txt", rng, keys,
                                 [str(i) for i in range(len(terms))], **opts)
        else:
            path = tmp_path / "c.txt"
            vocab = opts.pop("vocabulary", None)
            kwargs = {k: opts.pop(k) for k in ("stopwords", "max_terms") if k in opts}
            if vocab is not None:
                kwargs["vocabulary"] = Vocabulary.from_terms(vocab)
            _write_random_corpus(path, rng, keys, terms, **opts)
        reports = []
        got = load_corpus(path, fmt, report_sink=reports.append, **kwargs)
        want, want_report = load_corpus_long_form(path, fmt, **kwargs)
        assert got == want
        assert reports == [want_report]
        docs = [d for sl in got.slices for d in sl.docs]
        assert all(d.tokens.dtype == np.int32 and not d.tokens.flags.writeable
                   for d in docs)
        if "max_terms" in kwargs:
            assert got.vocabulary.size == kwargs["max_terms"] < len(terms)
        if case == "explicit_vocab_oov":
            assert want_report.tokens_dropped > 0
            assert any(len(d) == 0 for d in docs)


class TestSplitHoldout:
    def _corpus(self, tmp_path, lengths=(10, 10, 10, 10, 10), n_slices=2):
        lines = []
        for t in range(1, n_slices + 1):
            for j, n in enumerate(lengths):
                toks = " ".join(f"w{(j + i) % 7}" for i in range(n))
                lines.append(f"{t}\t{toks}")
        p = tmp_path / "c.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_corpus(p)

    def test_deterministic(self, tmp_path):
        c = self._corpus(tmp_path)
        s1 = split_holdout(c, 0.4, 0.5, seed=9)
        s2 = split_holdout(c, 0.4, 0.5, seed=9)
        assert s1.train == s2.train
        for a, b in zip(s1.test, s2.test):
            np.testing.assert_array_equal(a.observed, b.observed)
            np.testing.assert_array_equal(a.heldout, b.heldout)

    def test_even_split_counts(self, tmp_path):
        c = self._corpus(tmp_path, lengths=(10,))
        s = split_holdout(c, 0.9, 0.5, seed=0)
        for td in s.test:
            assert td.observed.size == 5 and td.heldout.size == 5

    def test_token_multiset_conserved(self, tmp_path):
        c = self._corpus(tmp_path, lengths=(9, 13, 4))
        s = split_holdout(c, 0.9, 0.3, seed=3)
        originals = {d.doc_id: d.tokens for sl in c.slices for d in sl.docs}
        for td in s.test:
            merged = np.sort(np.concatenate([td.observed, td.heldout]))
            np.testing.assert_array_equal(merged, np.sort(originals[td.doc_id]))

    def test_train_test_disjoint(self, tmp_path):
        c = self._corpus(tmp_path, lengths=(5, 5, 5, 5))
        s = split_holdout(c, 0.5, 0.5, seed=1)
        test_ids = {td.doc_id for td in s.test}
        train_ids = {d.doc_id for sl in s.train.slices for d in sl.docs}
        assert not (test_ids & train_ids)
        assert len(test_ids) + len(train_ids) == c.n_docs

    def test_per_doc_fraction_within_one_token(self, tmp_path):
        c = self._corpus(tmp_path, lengths=(7, 11, 23, 5))
        frac = 0.35
        s = split_holdout(c, 0.9, frac, seed=2)
        for td in s.test:
            n = td.observed.size + td.heldout.size
            assert abs(td.heldout.size - frac * n) <= 1.0

    def test_mean_heldout_fraction(self, tmp_path):
        # Monte Carlo over seeds with mixed doc lengths
        c = self._corpus(tmp_path, lengths=tuple(range(3, 41, 2)), n_slices=1)
        fracs = []
        for seed in range(1000):
            s = split_holdout(c, 0.9, 0.5, seed=seed)
            for td in s.test:
                n = td.observed.size + td.heldout.size
                fracs.append(td.heldout.size / n)
        assert abs(np.mean(fracs) - 0.5) < 0.02

    def test_single_token_doc_fully_observed(self, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("1\tw0\n1\tw1 w2\n", encoding="utf-8")
        c = load_corpus(p)
        s = split_holdout(c, 0.99, 0.5, seed=0)
        assert s.unsplittable_docs == 1
        tiny = [td for td in s.test if td.observed.size + td.heldout.size == 1]
        assert tiny and all(td.heldout.size == 0 for td in tiny)

    def test_fraction_validation(self, tmp_path):
        c = self._corpus(tmp_path)
        with pytest.raises(ValueError):
            split_holdout(c, 0.0, 0.5, seed=0)
        with pytest.raises(ValueError):
            split_holdout(c, 0.5, 1.0, seed=0)
