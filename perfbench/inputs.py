"""Seeded inputs for the navigation benchmark.

Everything a workload feeds the mediator is generated here from one
``--seed``: the two book catalogs, the homes/schools join data and the
per-query (T, k) browsing sequence.  The mediator only ever sees the
generated trees and databases; the seed itself never reaches it.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Tuple

from repro import MIXMediator, RelationalLXPWrapper, XMLFileWrapper
from repro.bench import allbooks_plan, homes_and_schools, two_bookstores
from repro.relational import Connection, Database
from repro.xtree import Tree

#: books per catalog in the browse workloads
N_BOOKS = 300
#: catalog pairs per seed.  A query's cost, and above all its time to
#: the first result, hangs on where the qualifying books sit in its
#: catalog; spreading each run's queries over many pairs keeps the
#: percentiles from hanging on one seed's layout.
N_PAIRS = 32
#: the XML catalogs' LXP granularity (siblings per fill, levels per
#: shipped element)
BOOK_CHUNK, BOOK_DEPTH = 20, 4
#: the price thresholds T the user may ask for (prices run 8..90, so
#: 75% and 87% of the books qualify: the first result is nearly always
#: among the first two books); a small set keeps the eager oracle
#: cheap while k (1..MAX_K) spreads the latency
THRESHOLDS = (70, 80)
MAX_K = 20

#: join_scan sizing: each query joins one of these datasets, 40 to 80
#: homes (60 on average) over a third as many zips, 2 schools per zip.
#: Identical queries would give a latency distribution so narrow that
#: its median jumps with whichever machine speed held for most of the
#: run; a spread of sizes makes it move smoothly instead.
HOME_COUNTS = tuple(range(40, 81))
SCHOOLS_PER_ZIP = 2
SCHOOL_CHUNK = 10

BROWSE_QUERY = ("CONSTRUCT <hits> $B {$B} </hits> {} "
                "WHERE %s book $B AND $B price._ $P AND $P < %d")

#: Figure 3's query with the schools read from the relational
#: wrapper, whose rows are labelled ``rowN`` (hence ``schools._``).
JOIN_QUERY = """
CONSTRUCT <answer>
            <med_home> $H $S {$S} </med_home> {$H}
          </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools._ $S AND $S zip._ $V2
  AND $V1 = $V2
"""


def browse_query(pair: int, threshold: int) -> str:
    """"Books under $T" over catalog pair ``pair``'s union view."""
    return BROWSE_QUERY % ("allbooks%d" % pair, threshold)


class BrowseInputs:
    """The catalog pairs and the (pair, T, k) sequence of one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.catalogs = []
        for pair in range(N_PAIRS):
            amazon, bn = two_bookstores(N_BOOKS, seed=seed * N_PAIRS + pair)
            self.catalogs.append((Tree("catalog", amazon),
                                  Tree("catalog", bn)))

    def wrappers(self, pair: int) -> Dict[str, XMLFileWrapper]:
        """Fresh wrappers over catalog pair ``pair``."""
        amazon, bn = self.catalogs[pair]
        names = ("amazonSrc%d" % pair, "bnSrc%d" % pair)
        return {name: XMLFileWrapper(name, tree, chunk_size=BOOK_CHUNK,
                                     depth=BOOK_DEPTH)
                for name, tree in zip(names, (amazon, bn))}

    def queries(self) -> Iterator[Tuple[int, int, int]]:
        """This seed's endless (pair, T, k) sequence: catalog pair,
        price threshold and number of results the user reads.  Each
        call starts over.

        Every MAX_K consecutive queries read each k in 1..MAX_K once,
        in a seed-shuffled order, so k is exactly uniform over any run
        of whole blocks; pair and T are drawn uniformly per query."""
        rng = random.Random(self.seed * 7919 + 1)
        ks = list(range(1, MAX_K + 1))
        while True:
            rng.shuffle(ks)
            for k in ks:
                yield (rng.randrange(N_PAIRS), rng.choice(THRESHOLDS), k)


def register_wrapper(mediator: MIXMediator, name: str, wrapper) -> None:
    """Register a wrapper the way a user would."""
    mediator.register_wrapper(name, wrapper)


def browse_mediator(pairs, mediator=None,
                    register=register_wrapper) -> MIXMediator:
    """Register each ``(pair, wrappers)`` of ``pairs`` and the pair's
    ``allbooksN`` union view."""
    mediator = mediator if mediator is not None else MIXMediator()
    for pair, wrappers in pairs:
        for name, wrapper in wrappers.items():
            register(mediator, name, wrapper)
        mediator.register_view("allbooks%d" % pair,
                               allbooks_plan(*wrappers))
    return mediator


class JoinInputs:
    """Per dataset, homes (an XML document) and schools (a relational
    table), plus the seed's sequence of datasets to join."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.datasets = []
        for homes in HOME_COUNTS:
            trees = homes_and_schools(homes, schools_per_zip=SCHOOLS_PER_ZIP,
                                      zips=homes // 3, seed=seed * 100 + homes)
            database = Database("schoolsdb")
            table = database.create_table(
                "schools", [("dir", "str"), ("zip", "str")])
            for school in trees["schoolsSrc"].children[0].children:
                table.insert((school.find_child("dir").text(),
                              school.find_child("zip").text()))
            self.datasets.append((trees["homesSrc"].children[0], database))

    def wrappers(self, dataset: int) -> Dict[str, object]:
        """Fresh wrappers over dataset ``dataset``."""
        homes, database = self.datasets[dataset]
        return {
            "homesSrc": XMLFileWrapper("homesSrc", homes),
            "schoolsSrc": RelationalLXPWrapper(Connection(database),
                                               chunk_size=SCHOOL_CHUNK),
        }

    def queries(self) -> Iterator[int]:
        """This seed's endless sequence of datasets to join."""
        rng = random.Random(self.seed * 7919 + 2)
        while True:
            yield rng.randrange(len(self.datasets))


def join_mediator(wrappers, mediator=None,
                  register=register_wrapper) -> MIXMediator:
    """Register the homes and schools wrappers."""
    mediator = mediator if mediator is not None else MIXMediator()
    for name, wrapper in wrappers.items():
        register(mediator, name, wrapper)
    return mediator
