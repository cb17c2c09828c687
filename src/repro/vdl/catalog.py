"""The Virtual Data Catalog: Chimera's store of TRs and DVs.

"When a user or application requests a particular logical file name,
Chimera composes an abstract workflow based on the previously defined
derivations (if that composition is possible)" — the catalog provides the
lookup that drives this: which derivation *produces* a given logical file.
"""

from __future__ import annotations

from repro.core.errors import VDLSyntaxError
from repro.vdl.ast import Derivation, TransformationDecl
from repro.vdl.parser import parse_vdl


class VirtualDataCatalog:
    """Stores transformations and derivations; indexes derivations by output.

    Derivations can carry *metadata annotations* — the GriPhyN promise that
    "a user or application can ask for data using application-specific
    metadata without needing to know whether the data is available on some
    storage system or if it needs to be computed".
    :meth:`find_outputs_by_metadata` resolves such a metadata query to the
    logical files whose derivations match; feed the result to the composer
    (or :meth:`repro.core.vds.VirtualDataSystem.materialize_by_metadata`).
    """

    def __init__(self) -> None:
        self._transformations: dict[str, TransformationDecl] = {}
        self._derivations: dict[str, Derivation] = {}
        self._by_output: dict[str, str] = {}  # lfn -> derivation name
        self._annotations: dict[str, dict[str, str]] = {}  # dv name -> metadata

    # -- definition -----------------------------------------------------------
    def define_transformation(self, tr: TransformationDecl) -> None:
        if tr.name in self._transformations:
            raise VDLSyntaxError(f"transformation {tr.name!r} already defined")
        self._transformations[tr.name] = tr

    def define_derivation(self, dv: Derivation) -> None:
        tr = self._transformations.get(dv.transformation)
        if tr is None:
            raise VDLSyntaxError(
                f"derivation {dv.name!r} references unknown transformation {dv.transformation!r}"
            )
        dv.validate_against(tr)
        if dv.name in self._derivations:
            raise VDLSyntaxError(f"derivation {dv.name!r} already defined")
        for lfn in dv.output_files():
            if lfn in self._by_output:
                raise VDLSyntaxError(
                    f"logical file {lfn!r} already produced by derivation "
                    f"{self._by_output[lfn]!r}; cannot also be produced by {dv.name!r}"
                )
        self._derivations[dv.name] = dv
        for lfn in dv.output_files():
            self._by_output[lfn] = dv.name

    def define(self, vdl_text: str) -> tuple[int, int]:
        """Parse and ingest a VDL document; returns (#TR, #DV) defined."""
        transformations, derivations = parse_vdl(vdl_text)
        for tr in transformations:
            self.define_transformation(tr)
        for dv in derivations:
            self.define_derivation(dv)
        return len(transformations), len(derivations)

    # -- lookup -------------------------------------------------------------------
    def transformation(self, name: str) -> TransformationDecl:
        if name not in self._transformations:
            raise KeyError(f"unknown transformation {name!r}")
        return self._transformations[name]

    def derivation(self, name: str) -> Derivation:
        if name not in self._derivations:
            raise KeyError(f"unknown derivation {name!r}")
        return self._derivations[name]

    def producer_of(self, lfn: str) -> Derivation | None:
        """The derivation producing ``lfn``, or None (raw/input data)."""
        name = self._by_output.get(lfn)
        return self._derivations[name] if name is not None else None

    # -- metadata annotations --------------------------------------------------
    def annotate(self, derivation_name: str, **metadata: str) -> None:
        """Attach application-specific metadata to a derivation."""
        if derivation_name not in self._derivations:
            raise KeyError(f"unknown derivation {derivation_name!r}")
        self._annotations.setdefault(derivation_name, {}).update(
            {k: str(v) for k, v in metadata.items()}
        )

    def annotations_of(self, derivation_name: str) -> dict[str, str]:
        if derivation_name not in self._derivations:
            raise KeyError(f"unknown derivation {derivation_name!r}")
        return dict(self._annotations.get(derivation_name, {}))

    def find_derivations(self, **metadata: str) -> list[Derivation]:
        """Derivations whose annotations match every given key=value."""
        wanted = {k: str(v) for k, v in metadata.items()}
        out = []
        for name, dv in self._derivations.items():
            annotations = self._annotations.get(name, {})
            if all(annotations.get(k) == v for k, v in wanted.items()):
                out.append(dv)
        return out

    def find_outputs_by_metadata(self, **metadata: str) -> list[str]:
        """Logical files producible by derivations matching the metadata —
        the 'ask for data by metadata' entry point."""
        return [
            lfn for dv in self.find_derivations(**metadata) for lfn in dv.output_files()
        ]
