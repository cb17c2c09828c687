"""The transformation bodies: galMorph and concatVOTable, executed for real.

``galMorph`` is the per-galaxy science job of the VDL example in §3.2: it
reads one FITS cutout and writes a small text result file.  ``concatVOTable``
is the fan-in job of Figure 6 step 6 ("finally concatenate all the results
into an output VOTable"), carrying the per-galaxy *validity flag* of
§4.3.1(4) so that bad images never fail a whole cluster run.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.condor.local import ExecutableRegistry
from repro.core.errors import ExecutionError
from repro.fits.io import read_fits_bytes
from repro.morphology.pipeline import GalmorphTask, MorphologyResult, galmorph, galmorph_batch
from repro.votable.model import Field, VOTable
from repro.votable.writer import write_votable
from repro.workflow.abstract import AbstractJob

#: Schema of the computed-parameters VOTable returned to the portal.
MORPHOLOGY_FIELDS = (
    Field("id", "char", ucd="meta.id"),
    Field("valid", "boolean", description="computation completed successfully"),
    Field("surface_brightness", "double", unit="mag/arcsec2", ucd="phot.mag.sb"),
    Field("concentration", "double", ucd="phys.morph"),
    Field("asymmetry", "double", ucd="phys.morph"),
    Field("petrosian_radius_arcsec", "double", unit="arcsec"),
    Field("petrosian_radius_kpc", "double", unit="kpc"),
    Field("error", "char"),
)


def result_to_text(result: MorphologyResult) -> bytes:
    """Serialise one galMorph result as the per-galaxy ``.txt`` file."""
    lines = [
        f"id {result.galaxy_id}",
        f"valid {1 if result.valid else 0}",
        f"surface_brightness {float(result.surface_brightness)!r}",
        f"concentration {float(result.concentration)!r}",
        f"asymmetry {float(result.asymmetry)!r}",
        f"petrosian_radius_arcsec {float(result.petrosian_radius_arcsec)!r}",
        f"petrosian_radius_kpc {float(result.petrosian_radius_kpc)!r}",
        f"error {result.error}",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def text_to_result(payload: bytes) -> MorphologyResult:
    """Parse a per-galaxy ``.txt`` file back into a result record."""
    fields: dict[str, str] = {}
    for line in payload.decode("utf-8").splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    try:
        return MorphologyResult(
            galaxy_id=fields["id"],
            valid=fields["valid"] == "1",
            surface_brightness=float(fields["surface_brightness"]),
            concentration=float(fields["concentration"]),
            asymmetry=float(fields["asymmetry"]),
            petrosian_radius_arcsec=float(fields["petrosian_radius_arcsec"]),
            petrosian_radius_kpc=float(fields["petrosian_radius_kpc"]),
            error=fields.get("error", ""),
        )
    except KeyError as exc:
        raise ExecutionError(f"malformed galMorph result file: missing {exc}") from exc


def _galmorph_task(job: AbstractJob, inputs: dict[str, bytes]) -> GalmorphTask:
    """Decode one galMorph job + its staged input bytes into a task record."""
    if len(inputs) != 1 or len(job.outputs) != 1:
        raise ExecutionError(
            f"galMorph expects 1 input and 1 output, got {len(inputs)}/{len(job.outputs)}"
        )
    (image_bytes,) = inputs.values()
    params = job.parameters
    return GalmorphTask(
        image=read_fits_bytes(image_bytes),
        redshift=float(params["redshift"]),
        pix_scale=float(params["pixScale"]),
        zero_point=float(params.get("zeroPoint", "0")),
        ho=float(params.get("Ho", "100")),
        om=float(params.get("om", "0.3")),
        flat=params.get("flat", "1") == "1",
    )


def galmorph_executable(job: AbstractJob, inputs: dict[str, bytes]) -> dict[str, bytes]:
    """The galMorph transformation body.

    Expects exactly one FITS input and the scalar parameters of the VDL
    derivation (``redshift``, ``pixScale``, ``zeroPoint``, ``Ho``, ``om``,
    ``flat``); writes the single declared output file.
    """
    task = _galmorph_task(job, inputs)
    result = galmorph(
        task.image,
        redshift=task.redshift,
        pix_scale=task.pix_scale,
        zero_point=task.zero_point,
        ho=task.ho,
        om=task.om,
        flat=task.flat,
    )
    return {job.outputs[0]: result_to_text(result)}


def galmorph_batch_executable(
    jobs: Sequence[AbstractJob], inputs_list: Sequence[dict[str, bytes]]
) -> list[dict[str, bytes]]:
    """Whole-bundle galMorph body for clustered compute nodes.

    Decodes every member's FITS cutout up front and routes the bundle
    through :func:`repro.morphology.pipeline.galmorph_batch`, so all
    same-shape cutouts of a seqexec cluster stack into one shared-geometry
    batch (index grids, radius maps, sorted permutations, aperture masks
    built once per shape) instead of rebuilding state per member.  Output
    values hold the stacked kernels' 1e-9 parity contract against the
    per-job body (identity, validity and structure match exactly).
    """
    tasks = [_galmorph_task(job, inputs) for job, inputs in zip(jobs, inputs_list)]
    results = galmorph_batch(tasks)
    return [
        {job.outputs[0]: result_to_text(result)} for job, result in zip(jobs, results)
    ]


def concat_executable(job: AbstractJob, inputs: dict[str, bytes]) -> dict[str, bytes]:
    """The concatVOTable transformation body: results -> output VOTable."""
    if len(job.outputs) != 1:
        raise ExecutionError(f"concatVOTable expects 1 output, got {len(job.outputs)}")
    table = VOTable(MORPHOLOGY_FIELDS, name=job.parameters.get("cluster", "morphology"))
    for lfn in job.inputs:  # preserve the derivation's input order
        result = text_to_result(inputs[lfn])
        table.append(
            {
                "id": result.galaxy_id,
                "valid": result.valid,
                "surface_brightness": _none_if_nan(result.surface_brightness),
                "concentration": _none_if_nan(result.concentration),
                "asymmetry": _none_if_nan(result.asymmetry),
                "petrosian_radius_arcsec": _none_if_nan(result.petrosian_radius_arcsec),
                "petrosian_radius_kpc": _none_if_nan(result.petrosian_radius_kpc),
                "error": result.error,
            }
        )
    return {job.outputs[0]: write_votable(table).encode("utf-8")}


def _none_if_nan(value: float) -> float | None:
    return None if not np.isfinite(value) else value


def register_demo_executables(registry: ExecutableRegistry) -> None:
    """Install galMorph and concatVOTable into an executable registry.

    galMorph also gets its batch body, so clustered compute nodes amortise
    cutout geometry across the whole bundle instead of running the naive
    per-member loop.
    """
    registry.register("galMorph", galmorph_executable)
    registry.register_batch("galMorph", galmorph_batch_executable)
    registry.register("concatVOTable", concat_executable)
