"""Term-based document collections for the traditional IR baseline.

Section 2 grounds the paper in the language-modelling approach of Ponte
& Croft (via Berger & Lafferty): documents are bags of terms, a query
is generated from the "ideal document", and documents are ranked by
query likelihood.  This module provides the minimal corpus machinery:
tokenisation, term counts, and collection statistics.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import ReproError

__all__ = ["tokenize", "Document", "Corpus"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lower-case alphanumeric tokenisation.

    >>> tokenize("Channel 5 News: weather & traffic!")
    ['channel', '5', 'news', 'weather', 'traffic']
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Document:
    """A document: an id plus its term counts."""

    doc_id: str
    terms: Mapping[str, int]

    @staticmethod
    def from_text(doc_id: str, text: str) -> "Document":
        return Document(doc_id, dict(Counter(tokenize(text))))

    @property
    def length(self) -> int:
        """Total token count."""
        return sum(self.terms.values())

    def count(self, term: str) -> int:
        return self.terms.get(term, 0)

    def __contains__(self, term: str) -> bool:
        return term in self.terms


class Corpus:
    """A collection of documents with aggregate statistics.

    Examples
    --------
    >>> corpus = Corpus()
    >>> corpus.add(Document.from_text("d1", "traffic bulletin morning"))
    >>> corpus.add(Document.from_text("d2", "weather bulletin"))
    >>> corpus.collection_probability("bulletin")
    0.4
    """

    def __init__(self, documents: Iterable[Document] = ()):
        self._documents: dict[str, Document] = {}
        self._collection_counts: Counter[str] = Counter()
        self._total_terms = 0
        for document in documents:
            self.add(document)

    def add(self, document: Document) -> None:
        if document.doc_id in self._documents:
            raise ReproError(f"document {document.doc_id!r} already in corpus")
        self._documents[document.doc_id] = document
        self._collection_counts.update(document.terms)
        self._total_terms += document.length

    def add_text(self, doc_id: str, text: str) -> Document:
        document = Document.from_text(doc_id, text)
        self.add(document)
        return document

    # -- access ---------------------------------------------------------
    def get(self, doc_id: str) -> Document:
        try:
            return self._documents[doc_id]
        except KeyError as exc:
            raise ReproError(f"no document {doc_id!r} in corpus") from exc

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents.values())

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(self._documents)

    # -- statistics -------------------------------------------------------
    def collection_count(self, term: str) -> int:
        return self._collection_counts.get(term, 0)

    def collection_probability(self, term: str) -> float:
        """Maximum-likelihood term probability over the whole collection."""
        if self._total_terms == 0:
            return 0.0
        return self._collection_counts.get(term, 0) / self._total_terms

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._collection_counts)
