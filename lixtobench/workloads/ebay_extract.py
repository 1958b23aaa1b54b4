"""``ebay_extract``: the Figure 5 eBay wrapper over result pages of mixed size.

Each request parses one seeded result page and runs the Figure 5 Elog
program over it through ``Session.extract``.  Page sizes span 8x so that
``linearity_ratio`` (per-record time, 32-record pages over 4-record pages)
exposes any superlinear path in Elog extraction.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Tuple

from repro import Session
from repro.elog import figure5_program
from repro.html import parse_html
from repro.web.sites.ebay import AuctionItem, generate_items, render_page

from ..spans import Tracer
from .base import Outcome, Workload, deck, session_counters, span, traced

#: Records per page -> pages per block of 20 requests.  The exact mix keeps
#: the median inside the 8-record class and the p90 inside the 32-record one.
#: The mix is assumed, not observed (see NOTES.md).
SIZE_MIX = ((4, 6), (8, 6), (16, 5), (32, 3))
TINY_SIZE_MIX = ((2, 1), (4, 1))
URL = "www.ebay.com"


class EbayExtract(Workload):
    name = "ebay_extract"
    why = (
        "The paper's running example: Elog and HTML parsing do all the work, "
        "and an 8x page-size mix exposes superlinear extraction."
    )
    block = sum(count for _, count in SIZE_MIX)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self._rng = random.Random(f"ebay_extract/{seed}")
        self._sizes = deck(self._rng, TINY_SIZE_MIX if tiny else SIZE_MIX)

    def input_bytes(self, count: int) -> bytes:
        pages = [self.prepare(index)[1] for index in range(count)]
        return json.dumps(pages).encode()

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.session = Session()
        program = figure5_program()
        with span(tracer, "analysis"):
            self.session.analyze(program)
        with span(tracer, "registry.compile"):
            extractor = self.session.wrapper(program)
        self.program = program
        if tracer is not None:
            # Session.extract calls the memoised interpreter's extract();
            # wrapping it on the instance separates Elog from the façade.
            extractor.extract = tracer.wrap("elog.extract", extractor.extract)
        self._extract = traced(tracer, "api.session", self.session.extract)
        self._parse = traced(tracer, "html.parse", parse_html)

    def prepare(self, index: int) -> Tuple[List[AuctionItem], str]:
        size = next(self._sizes)
        items = generate_items(size, seed=self._rng.randrange(2**31))
        html = render_page(items)
        self.bump("html.bytes", len(html))
        return items, html

    def execute(self, request: Tuple[List[AuctionItem], str]):
        document = self._parse(request[1], url=URL)
        return self._extract(self.program, document)

    def outcome(self, request, output) -> Outcome:
        items = request[0]
        self.bump("elog.instances", output.count())
        records = output.instances("record")
        expected = [(item.description, item.price_text(), f"{item.bids} bids") for item in items]
        extracted = [
            tuple(
                " | ".join(instance.text() for instance in record.find_all(pattern))
                for pattern in ("itemdes", "price", "bids")
            )
            for record in records
        ]
        return Outcome(
            ok=extracted == expected,
            items=len(records),
            size=len(items),
            units=len(items),
        )

    def counters(self) -> Dict[str, float]:
        values = session_counters(self.session)
        values.update(self.tally)
        return values
