"""Chimera: the Virtual Data Language and abstract-workflow composition.

"Using the Chimera Virtual Data Language (VDL), the user can describe
*transformations* ... and *derivations*, which are instantiations of these
transformations on specific datasets" (§3.2).  This package implements the
VDL dialect shown in the paper::

    TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om,
                 in flat, in image, out galMorph ) { ... }

    DV d1->galMorph( redshift="0.027886",
                     image=@{in:"NGP9_F323-0927589.fit"},
                     ...,
                     galMorph=@{out:"NGP9_F323-0927589.txt"} );

plus the Virtual Data Catalog that stores them and the composer that turns
"I want logical file X" into an abstract workflow by chaining derivations
backwards (Figure 1).
"""

from repro.vdl.ast import ArgDirection, Derivation, FileBinding, TransformationDecl
from repro.vdl.catalog import VirtualDataCatalog
from repro.vdl.composer import compose_workflow
from repro.vdl.parser import parse_vdl

__all__ = [
    "ArgDirection",
    "FileBinding",
    "TransformationDecl",
    "Derivation",
    "VirtualDataCatalog",
    "compose_workflow",
    "parse_vdl",
]
