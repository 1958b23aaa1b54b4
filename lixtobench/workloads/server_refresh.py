"""``server_refresh``: Transformation Server ticks over a changing simulated Web.

Three application pipes from the paper run on one ``TransformationServer``:
the Figure 7 books integration (three shops -> integrate -> filter -> sort ->
XML delivery), the Section 6.2 flight monitor (board -> watch filter ->
change-gated SMS) and the Section 6.1 "Now Playing" join (four radios and a
chart -> merge -> join -> HTML portal).  Each request is one
``server.tick()``.  The join pipe refreshes every third tick, so ticks come
in two input-size classes (4 and 9 pages) and ``linearity_ratio`` is the
tick time per byte of HTML fetched of the larger class over the smaller;
the median falls among the 4-page ticks and the p90 among the 9-page ones.
Before a fixed share of ticks some pages are republished with changes.  A
seeded transient ``FaultPlan`` fails fetches, always recoverably: it never
fails a URL more than twice in a row, and the retry policy allows four
attempts.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional

from repro import ResiliencePolicy, RetryPolicy, Session
from repro.api import (
    ChangeDetector,
    ChangeGatedDeliverer,
    FaultPlan,
    HtmlPortalDeliverer,
    SmsDeliverer,
    XmlDeliverer,
)
from repro.elog.concepts import parse_number
from repro.elog.extractor import Fetcher
from repro.html import parse_html
from repro.server import DelivererComponent, WrapperComponent
from repro.tree.document import Document
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import div_shop_page, generate_books, list_shop_page, table_shop_page
from repro.web.sites.flights import STATUSES, Flight, departures_page, generate_flights
from repro.web.sites.music import SONGS, chart_page, radio_page, retune_station, stations

from ..spans import Tracer
from .base import Outcome, Workload, session_counters, span

SHOP_A = """
book(S, X)  <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
"""
SHOP_B = """
book(S, X)  <- document(_, S), subelem(S, ?.li, X)
title(S, X) <- book(_, S), subelem(S, (?.span, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.span, [(class, price, exact)]), X)
"""
SHOP_C = """
book(S, X)  <- document(_, S), subelem(S, (?.div, [(class, entry, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.div, [(class, t, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.div, [(class, p, exact)]), X)
"""
BOARD = """
flight(S, X) <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, flight, exact)]))
number(S, X) <- flight(_, S), subelem(S, (?.td, [(class, flight, exact)]), X)
dest(S, X)   <- flight(_, S), subelem(S, (?.td, [(class, dest, exact)]), X)
status(S, X) <- flight(_, S), subelem(S, (?.td, [(class, status, exact)]), X)
"""
RADIO = """
playing(S, X) <- document(_, S), subelem(S, (?.div, [(class, nowplaying, exact)]), X)
song(S, X)    <- playing(_, S), subelem(S, (?.span, [(class, song, exact)]), X)
artist(S, X)  <- playing(_, S), subelem(S, (?.span, [(class, artist, exact)]), X)
stream(S, X)  <- playing(_, S), subelem(S, (?.a, [(class, stream, exact)]), X)
"""
CHART = """
entry(S, X)    <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, pos, exact)]))
position(S, X) <- entry(_, S), subelem(S, (?.td, [(class, pos, exact)]), X)
song(S, X)     <- entry(_, S), subelem(S, (?.td, [(class, song, exact)]), X)
"""

SHOPS = (
    ("shop_a", SHOP_A, "books-a.test/bestsellers", table_shop_page, 0.0),
    ("shop_b", SHOP_B, "books-b.test/chart", list_shop_page, 2.0),
    ("shop_c", SHOP_C, "books-c.test/picks", div_shop_page, -1.5),
)
BOARD_URL = "vienna-airport.test/departures"
CHART_URL = "charts-1.test/top"
#: Ticks per block of ten preceded by a republish (a write).  This and the
#: fault rate are assumed, not observed (see NOTES.md).
WRITE_TICKS = frozenset({2, 5, 8})
#: Transient fault probability per fetch; never more than two in a row per
#: URL, so four attempts always recover and no tick fails.
FAULT_RATE = 0.08
AFFORDABLE = 30.0


def _affordable(book) -> bool:
    return (parse_number(book.findtext("price")) or 999.0) < AFFORDABLE


class TracingFetcher(Fetcher):
    """The simulated Web seen through spans: acquisition and parsing apart."""

    def __init__(self, web: SimulatedWeb, tracer: Tracer, workload: Workload) -> None:
        self.web = web
        self.tracer = tracer
        self.workload = workload

    def fetch(self, url: str) -> Document:
        with self.tracer.span("web.fetch"):
            html = self.web.fetch_html(url)
        self.workload.bump("html.bytes", len(html))
        with self.tracer.span("html.parse"):
            return parse_html(html, url=url)


class ServerRefresh(Workload):
    name = "server_refresh"
    why = (
        "Many small pages through fetch, parse, wrapper, integrate/join, change "
        "detection, delivery and retry: the Transformation Server path."
    )
    block = 30

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        rng = self._rng = random.Random(f"server_refresh/{seed}")
        self.books_per_shop = 3 if tiny else 10
        self.station_count = 2 if tiny else 4
        flights = generate_flights(4 if tiny else 12, seed=rng.randrange(2**31))
        # The change detector keys flights by number: keep numbers unique.
        unique = {flight.number: flight for flight in reversed(flights)}
        self.flights: List[Flight] = [f for f in flights if unique[f.number] is f]
        self.watched = {flight.number for flight in self.flights[:2]}
        self.stations = stations(self.station_count, seed=rng.randrange(2**31))
        #: The HTML currently published at each URL.
        self.pages: Dict[str, str] = {}
        for _, _, url, render, offset in SHOPS:
            self.pages[url] = render(self._books(offset))
        self.pages[BOARD_URL] = departures_page("Vienna", self.flights)
        for station in self.stations:
            self.pages[station.url] = radio_page(station)
        self.pages[CHART_URL] = chart_page("Chart 1", seed=rng.randrange(2**31))
        self.web = SimulatedWeb()
        self.web.publish_many(self.pages)
        self.plan = FaultPlan(seed=seed).fail_rate(FAULT_RATE, max_failures=2)
        self.web.install_faults(self.plan)
        self.policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.0, seed=seed)
        )
        self.expected_sms = 0
        self._sms_seen = 0

    def _books(self, offset: float):
        return generate_books(self.books_per_shop, seed=self._rng.randrange(2**31), price_offset=offset)

    def input_bytes(self, count: int) -> bytes:
        snapshots = [dict(self.pages)]
        for index in range(count):
            self.prepare(index)
            snapshots.append(dict(self.pages))
        return json.dumps(snapshots, sort_keys=True).encode()

    # -- set-up --------------------------------------------------------------
    def setup(self, tracer: Optional[Tracer]) -> None:
        session = self.session = Session(resilience=self.policy)
        fetcher = self.web if tracer is None else TracingFetcher(self.web, tracer, self)
        texts = [shop[1] for shop in SHOPS] + [BOARD, RADIO, CHART]
        with span(tracer, "analysis"):
            for text in texts:
                session.analyze(text)
        with span(tracer, "registry.compile"):
            for text in texts:
                session.wrapper(text, fetcher)

        books = session.pipeline("books")
        for name, text, url, _, _ in SHOPS:
            books.wrapper(name, text, fetcher, url)
        self.books = (
            books.integrate("integrate", inputs=[shop[0] for shop in SHOPS], root_name="allbooks")
            .filter("affordable", "book", _affordable, root_name="affordable")
            .sort("by_price", "book", "price", root_name="offers")
            .deliver(XmlDeliverer("deliver", recipient="portal"))
            .build()
        )
        self.sms = SmsDeliverer("sms", "+43 660 0000", summarise=lambda doc: doc.full_text())
        watched = self.watched
        self.monitor = (
            session.pipeline("flights")
            .wrapper("board", BOARD, fetcher, BOARD_URL, root_name="departures")
            .filter("watched", "flight", lambda flight: flight.findtext("number") in watched,
                    root_name="watchlist")
            .deliver(self.sms, name="gate", on_change=ChangeDetector("flight", key="number"),
                     message=lambda report: "; ".join(
                         f"{f.findtext('number')} now {f.findtext('status')}"
                         for f in report.changed + report.added))
            .build()
        )
        playing = session.pipeline("now-playing")
        radios = []
        for station in self.stations:
            name = "radio_" + station.url.split(".")[0].replace("-", "_")
            radios.append(name)
            playing.wrapper(name, RADIO, fetcher, station.url, root_name="station")
        self.now_playing = (
            playing.wrapper("chart", CHART, fetcher, CHART_URL, root_name="chart")
            .integrate("radio_merge", inputs=radios, root_name="stations")
            .join("with_charts", primary="radio_merge", other="chart", record_name="playing",
                  other_record_name="entry", key="song", root_name="enriched")
            .deliver(HtmlPortalDeliverer("pda", record_name="playing",
                                         fields=("song", "artist", "position")))
            .build()
        )
        self.pipelines = (self.books, self.monitor, self.now_playing)
        server = self.server = self.books.serve(period=1)
        self.monitor.serve(server, period=1)
        self.now_playing.serve(server, period=3)
        self.urls_per_pipe = {
            "books": [shop[2] for shop in SHOPS],
            "flights": [BOARD_URL],
            "now-playing": [station.url for station in self.stations] + [CHART_URL],
        }
        self._tick = server.tick
        if tracer is not None:
            self._instrument(tracer)

    def _instrument(self, tracer: Tracer) -> None:
        for pipeline in self.pipelines:
            for component in pipeline.components():
                if isinstance(component, WrapperComponent):
                    layer = "elog.extract"
                elif isinstance(component, (DelivererComponent, ChangeGatedDeliverer)):
                    layer = "server.deliver"
                else:
                    layer = "server.transform"
                component.process = tracer.wrap(layer, component.process)
        self._tick = tracer.wrap("server.tick", self.server.tick)

    # -- requests ------------------------------------------------------------
    def prepare(self, index: int) -> bool:
        """Republish pages before the write ticks; returns whether it did."""
        write = index > 0 and index % 10 in WRITE_TICKS
        if write:
            for url, html in self._changes().items():
                if self.pages[url] != html:
                    self.bump("web.changed")
                self.pages[url] = html
                self.web.publish(url, html)
        return write

    def _changes(self) -> Dict[str, str]:
        """One seeded change: shop prices, a flight status, or a radio song."""
        rng = self._rng
        kind = rng.choice(("books", "flight", "radio"))
        if kind == "books":
            _, _, url, render, offset = rng.choice(SHOPS)
            return {url: render(self._books(offset))}
        if kind == "flight":
            position = rng.randrange(len(self.flights))
            flight = self.flights[position]
            status = rng.choice([s for s in STATUSES if s != flight.status])
            self.flights[position] = flight.with_status(status)
            if flight.number in self.watched:
                self.expected_sms += 1
            return {BOARD_URL: departures_page("Vienna", self.flights)}
        station = rng.choice(self.stations)
        song, artist = rng.choice(SONGS)
        return {station.url: retune_station(radio_page(station), song, artist)}

    def execute(self, request) -> List[str]:
        return self._tick()

    def outcome(self, write: bool, ran: List[str]) -> Outcome:
        sent = len(self.sms.deliveries)
        ok = sent == self.expected_sms
        items = sent - self._sms_seen  # one changed flight per SMS
        self._sms_seen = sent
        for pipeline in self.pipelines:
            if pipeline.name not in ran:
                continue
            results = pipeline.last_results
            for component in pipeline.components():
                if isinstance(component, WrapperComponent):
                    self.bump("elog.instances", sum(1 for _ in results[component.name].iter()) - 1)
        if "books" in ran:
            results = self.books.last_results
            offers = sum(1 for _ in results["integrate"].iter("book"))
            ok = ok and offers == 3 * self.books_per_shop
            items += sum(1 for _ in results["by_price"].iter("book"))
        if "now-playing" in ran:
            playing = sum(1 for _ in self.now_playing.last_results["with_charts"].iter("playing"))
            ok = ok and playing == self.station_count
            items += playing
        urls = [url for name in ran for url in self.urls_per_pipe[name]]
        html_bytes = sum(len(self.pages[url]) for url in urls)
        return Outcome(ok=ok, items=items, size=len(urls), units=html_bytes, write=write)

    def counters(self) -> Dict[str, float]:
        values = session_counters(self.session)
        values["web.fetches"] = len(self.web.fetch_log)
        values["server.pipes_run"] = len(self.server.run_log)
        values["server.deliveries"] = sum(
            len(deliverer.deliveries)
            for pipeline in self.pipelines
            for deliverer in pipeline.deliverers()
        )
        for field in ("retries", "stale_served", "errors_isolated"):
            values["resilience." + field] = sum(
                getattr(info, field)
                for pipeline in self.pipelines
                for info in pipeline.resilience_report().values()
            )
        values["resilience.faults_injected"] = sum(self.plan.injected.values())
        values.update(self.tally)
        return values
