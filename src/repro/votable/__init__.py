"""VOTable: the XML tabular interchange format of the Virtual Observatory.

The paper transports every catalog — cone-search results, cutout references,
computed morphology parameters — as VOTables, and leans on their XML-ness to
transform them ("XSLT ... proved useful for integrating with the Chimera and
Pegasus software").  This package implements:

* a typed in-memory model (:class:`Field`, :class:`VOTable`),
* parsing and serialisation of the ``VOTABLE/RESOURCE/TABLE/FIELD/DATA/
  TABLEDATA`` document shape via :mod:`xml.etree.ElementTree`,
* the table *operations* the portal's merge step needs — keyed join and
  column addition (§4.2: "the ability to join VOTables in a general way"),
* the Mirage-native export the authors produced with an XSL stylesheet.
"""

from repro.votable.binary import parse_votable_binary, write_votable_binary
from repro.votable.model import Field, VOTable
from repro.votable.ops import add_column, inner_join
from repro.votable.parser import parse_votable
from repro.votable.writer import iter_votable, to_mirage_format, write_votable

__all__ = [
    "Field",
    "VOTable",
    "add_column",
    "inner_join",
    "parse_votable",
    "parse_votable_binary",
    "write_votable_binary",
    "iter_votable",
    "write_votable",
    "to_mirage_format",
]
