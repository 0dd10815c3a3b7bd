"""Expression-matrix ingestion and the cleaning pipeline.

load_matrix reads a file as csv.reader and float() would, row by row, but
in blocks of _BLOCK_LINES lines.  The header is one csv.reader record of
the text file; everything after it is read as bytes at offsets.  A pipe is
read once into memory, and its bytes stand in for the file.  A first
binary pass counts the lines, which bounds the gene rows, so the values go
straight into one array and the peak memory is that array plus a block
for each process; the pass also records the byte offset of each block.
Each block's lines are split as a text file opened with newline=""
splits them and decoded as UTF-8; its gene ids are the text before each
line's first delimiter, stripped, and its cells are parsed by one
np.loadtxt call, which rounds as float() does, after a check that every
line has one delimiter per sample (loadtxt would drop extra cells).
When this process may run on two CPUs, a forked helper parses every
other block and pickles its gene ids and values into a pipe
(_map_blocks, which save_matrix also uses); the blocks of this process
are not pickled.  A block is declined when it holds a quote (a quoted
cell may span lines; csv.reader then reads on past the block to the end
of its record) or a NUL, a row of the wrong length, a cell that loadtxt
refuses but float() may take, such as '1_000', or bytes that are not
UTF-8.  From the first declined block on, the helper is stopped and this
process reads the lines of the remaining blocks, chained: csv.reader and
float() take each block that the loadtxt parse declines, and name the
line and column of a fault, or of the first byte that is not UTF-8.  So
the accepted input, the values and the errors are those of the
row-by-row parse of the text file, except that a byte that is not UTF-8
is refused with the line of its record, where the text file raised
UnicodeDecodeError.

`betscan preprocess` also writes matrix.tsv.npz beside its matrix.tsv
(save_binary_copy): the float64 values, the gene and sample ids as
fixed-width unicode arrays, and the sha256 of the text's bytes.  The
invariant: the copy holds exactly what the tab-delimited parse of that
text returns.  It holds because save_matrix writes repr floats, which
reload bit-exact, and save_binary_copy writes only what check_savable
accepts: finite values, and stripped ids with no tab, quote, CR, LF or
NUL.
load_matrix trusts a copy only through its digest: when fmt is
tab-delimited, path is a regular file and <path>.npz loads without
pickles, holds every key and records the sha256 of path's bytes (taken
now, or passed by a caller that hashed them), its arrays are returned and
the text is not parsed.  Any other copy is ignored and the text parsed,
so the text stays the source of truth and a copy adds no error.

Count matrices as published typically carry two artifacts that break a
rank transform: genes whose zero counts were replaced by the gene median
(a large spike of exactly-equal values), and residual zeros (ties at the
minimum).  The pipeline applies, in order:

    1. filter_zero_heavy   drop genes with more than 20% zero entries
    2. reset_median_imputed   move all but the first median duplicate back
       to the column minimum (zero counts are small expression, not
       typical expression)
    3. jitter_minimum_ties    spread tied minima over the open interval
       up to the second-smallest distinct value
    4. drop constant genes, which have no ranks, moving the kept rows up
       within the cleaned values

after which each column is strictly ordered and ready for
the rank transform.  Jitter never crosses the second-smallest value, so
every jittered observation stays in the lowest rank block and no
non-minimum ordering changes.

Randomness is drawn from numpy's Philox counter-based generator.  Gene g
of a run seeded with s uses the stream Philox(key = s * 2^64 + g), with g
the row index after the zero filter; results are therefore reproducible
for a given (seed, input) regardless of scheduling or gene order of
processing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import os
import pickle
import re
import signal
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    BetscanError,
    DegenerateColumnError,
    DegenerateSampleError,
    DimensionMismatchError,
    MatrixParseError,
    NonFiniteError,
    UnknownGeneError,
    UnknownLabelError,
)
from .manifest import (
    _escaped_byte,
    _not_utf8,
    atomic_open,
    open_input,
    read_csv,
    refused_record,
    sha256_file,
)

__all__ = [
    "ExpressionMatrix",
    "PreprocessReport",
    "FORMATS",
    "load_matrix",
    "save_matrix",
    "save_binary_copy",
    "check_savable",
    "load_labels",
    "filter_zero_heavy",
    "reset_median_imputed",
    "jitter_minimum_ties",
    "subset_by_labels",
    "upper_quartile_log2",
    "run_pipeline",
    "gene_stream_key",
]

_MASK64 = (1 << 64) - 1


@dataclass
class ExpressionMatrix:
    """Genes x samples matrix with identifiers and optional sample labels."""

    gene_ids: list[str]
    sample_ids: list[str]
    values: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionMismatchError("values must be a 2-d array")
        g, s = self.values.shape
        if g != len(self.gene_ids):
            raise DimensionMismatchError(
                f"{len(self.gene_ids)} gene ids for {g} rows"
            )
        if s != len(self.sample_ids):
            raise DimensionMismatchError(
                f"{len(self.sample_ids)} sample ids for {s} columns"
            )
        if self.labels is not None and len(self.labels) != s:
            raise DimensionMismatchError(
                f"{len(self.labels)} labels for {s} samples"
            )

    @property
    def n_genes(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def gene_index(self, gene_id: str) -> int:
        try:
            return self.gene_ids.index(gene_id)
        except ValueError:
            raise UnknownGeneError(gene_id) from None

    def column(self, gene_id: str) -> np.ndarray:
        return self.values[self.gene_index(gene_id)]

    def with_labels(self, mapping: dict[str, str]) -> "ExpressionMatrix":
        """Attach per-sample labels from a sample_id -> label mapping.

        The new matrix shares self's values, which no public step writes
        into: run_pipeline and `betscan preprocess` write in place only
        into copies, filter_zero_heavy's and subset_by_labels'.
        """
        missing = [s for s in self.sample_ids if s not in mapping]
        if missing:
            raise DimensionMismatchError(
                f"labels missing for sample(s): {', '.join(missing[:5])}"
                + ("..." if len(missing) > 5 else "")
            )
        return replace(self, labels=[mapping[s] for s in self.sample_ids])


@dataclass
class PreprocessReport:
    """What the pipeline changed, keyed by gene id."""

    genes_dropped: list[dict] = field(default_factory=list)
    medians_reset: dict[str, int] = field(default_factory=dict)
    jitter_seed: int = 0
    jitter_widths: dict[str, float] = field(default_factory=dict)


_DELIMS = {"tsv_genes_by_samples": "\t", "tsv": "\t", "csv": ","}
FORMATS = tuple(_DELIMS)  # the fmt names of load_matrix and save_matrix

# body lines parsed per np.loadtxt call; bounds the text held at once
_BLOCK_LINES = 32
# bytes of each read that counts the lines of a matrix
_COUNT_BYTES = 1 << 20
# gene rows that save_matrix formats at once, and each process holds
_WRITE_ROWS = 64
# gene rows that run_pipeline sorts at once; bounds its working memory
_PIPELINE_ROWS = 256
# rejected draws after which jitter_minimum_ties refuses a gene's tied minima
_JITTER_DRAWS = 100


def load_matrix(
    path, fmt: str = "tsv_genes_by_samples", *, sha256: str | None = None
) -> ExpressionMatrix:
    """Parse a delimited genes-by-samples matrix.

    First row: corner cell then sample ids.  Each following row: gene id
    then one numeric cell per sample ('.' decimal separator).  Bad cells,
    and bytes that are not UTF-8, raise MatrixParseError with 1-based
    line/column coordinates.  The blocks of a file or a pipe are parsed by
    this process and a forked helper when two CPUs are free (module
    docstring); the values and errors are those of one process.  A helper
    that fails raises BetscanError; it is reaped whatever happens.  For a
    tab-delimited fmt, the arrays of a binary copy at <path>.npz that
    records path's sha256 are returned instead of a parse (module
    docstring).  A caller that has hashed path may pass the digest as
    sha256.
    """
    delim = _delimiter(fmt)
    copy = _load_binary_copy(path, sha256) if delim == "\t" else None
    if copy is not None:
        return copy
    with open_input(path) as fh:
        return _parse_matrix(fh, path, delim)


def _delimiter(fmt: str) -> str:
    if fmt not in _DELIMS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(_DELIMS)}")
    return _DELIMS[fmt]


def _parse_matrix(fh, path, delim: str) -> ExpressionMatrix:
    # the body is read at byte offsets, read(start, size): a file's, or the
    # bytes of a pipe, read once, which stand in for the file
    if fh.seekable():
        fd = fh.fileno()

        def read(start: int, size: int) -> bytes:
            return os.pread(fd, size, start)

    else:
        data = fh.buffer.read()
        fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")

        def read(start: int, size: int) -> bytes:
            return data[start : start + size]

    # the text file decodes chunks that may reach past the header; a byte
    # that is not UTF-8 in the body is left to the body parse, which names
    # its line
    fh.reconfigure(errors="surrogateescape")
    reader = csv.reader(fh, delimiter=delim)
    try:
        header = next(reader)
    except StopIteration:
        raise MatrixParseError(path, 1, 1, "empty file") from None
    except csv.Error as exc:
        raise refused_record(path, 1, exc) from None
    for column, cell in enumerate(header, start=1):
        try:
            cell.encode()  # refuses the escape of a byte that is not UTF-8
        except UnicodeEncodeError as exc:
            byte = _escaped_byte(exc)
            raise MatrixParseError(path, 1, column, _not_utf8(byte)) from None
    if len(header) < 2:
        raise MatrixParseError(path, 1, 1, "header has no sample ids")
    sample_ids = [c.strip() for c in header[1:]]
    width = len(sample_ids)

    offsets, body = _block_offsets(read, reader.line_num)
    blocks = range(len(offsets) - 1)
    # a record takes at least one line and holds `width` delimiters
    values = np.empty((min(body, offsets[-1] // width), width))
    gene_ids: list[str] = []

    def lines_of(k: int) -> list[bytes]:
        # bytes.splitlines ends a line at '\n', '\r' or '\r\n' alone, as a
        # text file opened with newline="" does (str.splitlines would also
        # end one at '\x0c', '\x1c', '\u2028' and more)
        return read(offsets[k], offsets[k + 1] - offsets[k]).splitlines(keepends=True)

    def parse(raw: list[bytes]) -> tuple[list[str], np.ndarray] | None:
        """_parse_block of raw lines decoded; None for bytes that are not UTF-8."""
        try:
            lines = [line.decode("utf-8") for line in raw]
        except UnicodeDecodeError:
            return None
        return _parse_block(lines, delim, width)

    done = 0  # the blocks before the first that parse declines
    with _map_blocks(lambda k: parse(lines_of(k)), blocks, "matrix parser") as results:
        for parsed in results:
            if parsed is None:
                break
            ids, block = parsed
            values[len(gene_ids) : len(gene_ids) + len(ids)] = block
            gene_ids += ids
            done += 1

    # this process reads on from the first declined block; the lines of the
    # blocks are chained, so that a quoted cell may carry a record on
    lines = itertools.chain.from_iterable(map(lines_of, blocks[done:]))
    line_no = 2 + done * _BLOCK_LINES  # csv record number of the next body line
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        g = len(gene_ids)
        parsed = parse(block)
        if parsed is None:
            text = map(bytes.decode, itertools.chain(block, lines))
            records = csv.reader(text, delimiter=delim)
            rows, line_no = _parse_records(
                records, len(block), path, line_no, width, gene_ids
            )
        else:
            ids, rows = parsed
            gene_ids += ids
            line_no += len(block)
        values[g : len(gene_ids)] = rows
    if not gene_ids:
        raise MatrixParseError(path, 2, 1, "no gene rows")
    if len(gene_ids) < len(values):
        values = values[: len(gene_ids)].copy()
    return ExpressionMatrix(gene_ids=gene_ids, sample_ids=sample_ids, values=values)


def _block_offsets(read, header_lines: int) -> tuple[list[int], int]:
    """The byte offsets at which the blocks of _BLOCK_LINES body lines start,
    then the input's size; and the number of body lines, which start after
    the header's header_lines lines.  Lines end at each LF, at the LF of
    each CR LF, and at each CR that no LF follows, as in a text file opened
    with newline="".
    """
    # line i starts after the end of line i - 1, and block k at line
    # header_lines + k * _BLOCK_LINES; wanted: the end of the line before it
    offsets, wanted, count, size, last = [], header_lines - 1, 0, 0, b"\n"
    # each read takes a byte past its span, which shows whether a CR at its
    # end is that of a CR LF
    while chunk := read(size, _COUNT_BYTES + 1):
        buf = np.frombuffer(chunk, np.uint8)
        ends = buf == ord("\n")
        if b"\r" in chunk:
            alone = buf == ord("\r")
            alone[:-1] &= ~ends[1:]  # a '\r\n' ends at its '\n'
            ends |= alone
        ends = np.flatnonzero(ends[:_COUNT_BYTES])
        found = ends[wanted - count :: _BLOCK_LINES]
        offsets += (found + (size + 1)).tolist()
        wanted += len(found) * _BLOCK_LINES
        count += len(ends)
        size += min(len(chunk), _COUNT_BYTES)
        last = chunk[-1:]
    if last not in b"\r\n":
        count += 1  # a last line without a line break
    body = count - header_lines
    # a file that ends with a line break has no line after its last end
    return offsets[: -(-body // _BLOCK_LINES)] + [size], body


def _parse_block(
    lines: list[str], delim: str, width: int
) -> tuple[list[str], np.ndarray] | None:
    """Parse lines that hold one record each with one loadtxt call.

    Returns their gene ids and (records, width) values, or None when
    csv.reader must read the lines: a quote or NUL, a row of the wrong
    length, or a cell that loadtxt refuses (float() also takes '1_000').
    A carriage return needs no csv.reader: a file opened with newline=""
    ends a line at every one.
    """
    text = "".join(lines)
    if '"' in text or "\0" in text:
        return None
    # csv.reader's blank records: no delimiter and nothing but whitespace
    rows = [line for line in lines if delim in line or line.strip()]
    if any(line.count(delim) != width for line in rows):
        return None
    if not rows:
        return [], np.empty((0, width))
    try:
        values = np.loadtxt(
            rows,
            delimiter=delim,
            usecols=range(1, width + 1),
            comments=None,
            ndmin=2,
        )
    except ValueError:
        return None
    return [line.partition(delim)[0].strip() for line in rows], values


def _parse_records(
    records, lines: int, path, line_no: int, width: int, gene_ids: list[str]
) -> tuple[np.ndarray, int]:
    """Read csv records until `lines` source lines are consumed.

    A quoted cell may carry the last record past them.  Returns the values
    and the record number after the last one read; raises MatrixParseError
    at the first bad record or cell.
    """
    rows: list[np.ndarray] = []
    try:
        for row in records:
            if row and (len(row) > 1 or row[0].strip()):
                if len(row) != width + 1:
                    raise MatrixParseError(
                        path, line_no, len(row),
                        f"expected {width + 1} cells, found {len(row)}",
                    )
                gene_ids.append(row[0].strip())
                try:
                    rows.append(np.fromiter(map(float, row[1:]), np.float64, width))
                except ValueError:
                    # find the cell at fault
                    for col_no, cell in enumerate(row[1:], start=2):
                        try:
                            float(cell)
                        except ValueError:
                            raise MatrixParseError(
                                path, line_no, col_no, f"non-numeric cell {cell!r}"
                            ) from None
                    raise
            line_no += 1
            if records.line_num >= lines:
                break
    except csv.Error as exc:
        raise refused_record(path, line_no, exc) from None
    except UnicodeDecodeError as exc:  # exc.object: the line
        cells = exc.object[: exc.start].count(records.dialect.delimiter.encode())
        byte = exc.object[exc.start : exc.start + 1]
        raise MatrixParseError(path, line_no, cells + 1, _not_utf8(byte)) from None
    return np.array(rows, dtype=np.float64).reshape(-1, width), line_no


def save_matrix(
    matrix: ExpressionMatrix, path, fmt: str = "tsv_genes_by_samples"
) -> str:
    """Write a matrix back out; floats use repr so reload is bit-exact.

    Raises BetscanError, before path is opened, naming the first id that
    holds the delimiter, a double quote, a CR, an LF or a NUL, or that
    starts or ends with whitespace; values are not checked, as repr
    reloads nan and inf.  Returns the sha256 of the bytes written.  The
    rows are formatted in blocks of _WRITE_ROWS genes.  When this process
    may run on two CPUs, a forked helper formats the odd blocks and sends
    them through a pipe while this process formats the even ones, and the
    blocks are written in row order, so the bytes are those of one
    process (_map_blocks).  The helper is reaped whatever happens; when it
    fails, save_matrix raises BetscanError and leaves no file.
    """
    delim = _delimiter(fmt)
    _check_ids(matrix, delim, Path(path).name)
    starts = range(0, matrix.n_genes, _WRITE_ROWS)

    def block(start: int) -> bytes:
        genes = matrix.gene_ids[start : start + _WRITE_ROWS]
        rows = matrix.values[start : start + _WRITE_ROWS].tolist()
        lines = [delim.join([gene, *map(repr, row)]) for gene, row in zip(genes, rows)]
        return "".join(line + "\n" for line in lines).encode()

    digest = hashlib.sha256()
    with atomic_open(path, binary=True) as fh:

        def write(data: bytes) -> None:
            fh.write(data)
            digest.update(data)

        write((delim.join(["gene_id", *matrix.sample_ids]) + "\n").encode())
        with _map_blocks(block, starts, "matrix writer") as blocks:
            for data in blocks:
                write(data)
    return digest.hexdigest()


def _usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where that is unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


@contextmanager
def _map_blocks(work, keys, name: str) -> Iterator[Iterator]:
    """Yield an iterator over work(key) for each of keys, in key order.

    work returns a picklable value; it may call NumPy but no BLAS routine,
    whose threads the helper lacks.  When there are two keys or more and
    this process may run on two CPUs, a forked helper computes every other
    key's result and pickles it into a pipe while this process computes
    the rest; otherwise this process computes them all and nothing is
    pickled.  On leaving after the last result, the helper has exited 0
    and is reaped; on leaving earlier, or on an error here, it is killed
    and reaped, and when it fails BetscanError is raised, naming the
    `name`'s helper and its exit status.
    """
    if len(keys) < 2 or _usable_cpus() < 2:
        yield map(work, keys)
        return
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe, open(write_fd, "wb") as out:
        with warnings.catch_warnings():
            # Python 3.12 warns of a fork in a process with threads, such as
            # OpenBLAS's; the helper calls nothing that could wait on them
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                pipe.close()  # so that a parent that dies breaks the pipe
                for key in keys[1::2]:
                    pickle.dump(work(key), out)
                    out.flush()  # the whole result, not held until the next
                out.close()
                status = 0
            finally:
                # no return into the caller, and no flush of the buffers that
                # this process shares with its parent, such as the output file's
                os._exit(status)
        reaped = finished = False

        def exit_code() -> int:
            nonlocal reaped
            _, status = os.waitpid(pid, 0)
            reaped = True
            return os.waitstatus_to_exitcode(status)

        def received():
            try:
                return pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # a pipe cut short
                raise _helper_failed(name, exit_code()) from None

        def results() -> Iterator:
            nonlocal finished
            for k, key in enumerate(keys):
                yield received() if k % 2 else work(key)
            finished = True

        try:
            out.close()  # so that a helper that stops leaves the pipe at its end
            yield results()
            if finished and (code := exit_code()):
                raise _helper_failed(name, code)
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _helper_failed(name: str, code: int) -> BetscanError:
    return BetscanError(f"the {name}'s helper process failed (exit status {code})")


# the arrays of a binary copy
_COPY_KEYS = ("values", "gene_ids", "sample_ids", "sha256")

# characters that save_matrix cannot write in an id so that load_matrix reads
# it back, by delimiter: the delimiter, the csv quote and line ends;
# fixed-width unicode arrays also drop a trailing NUL
_UNSAVABLE = {d: re.compile(f'[{d}"\r\n\0]') for d in set(_DELIMS.values())}


def _binary_copy_path(path) -> Path:
    return Path(f"{os.fspath(path)}.npz")


def save_binary_copy(
    matrix: ExpressionMatrix, path, sha256: str | None = None
) -> Path:
    """Write <path>.npz, the arrays of the text that save_matrix(matrix, path) wrote.

    Raises check_savable's BetscanError, and writes nothing, for a matrix
    whose parse would differ from its arrays.  The copy records the sha256
    of path's bytes, so load_matrix uses it only for that text: the digest
    that save_matrix returned, when passed, or else one taken now.  It is
    written atomically and uncompressed, each member dated 1980-01-01 by
    np.savez, so the same matrix gives the same bytes.  Returns its path.
    """
    check_savable(matrix)
    arrays = {
        "values": np.ascontiguousarray(matrix.values),
        "gene_ids": np.array(matrix.gene_ids, dtype=str),
        "sample_ids": np.array(matrix.sample_ids, dtype=str),
        "sha256": np.array(sha256 or sha256_file(path)),
    }
    copy = _binary_copy_path(path)
    with atomic_open(copy, binary=True) as fh:
        np.savez(fh, **arrays)
    return copy


def _load_binary_copy(path, sha256: str | None) -> ExpressionMatrix | None:
    """The matrix in path's binary copy, or None when the copy may not stand for path."""
    copy = _binary_copy_path(path)
    if not (os.path.isfile(path) and os.path.isfile(copy)):
        return None
    try:
        # np.load leaves a file it opened open when the archive is cut
        with open(copy, "rb") as fh, np.load(fh, allow_pickle=False) as arrays:
            if sorted(arrays.files) != sorted(_COPY_KEYS):
                return None
            if _text(arrays["sha256"]) != (sha256 or sha256_file(path)):
                return None
            values = arrays["values"]
            genes, samples = arrays["gene_ids"], arrays["sample_ids"]
    except Exception:
        # a cut or altered archive fails in zipfile or its decompressors with
        # BadZipFile, EOFError, NotImplementedError, RuntimeError and more;
        # np.load refuses a pickle or a bad header with ValueError, and the
        # array it returns for a lone .npy file is no context manager.
        # Whatever fails, the text is parsed instead
        return None
    if not (
        values.dtype == np.float64
        and values.ndim == 2
        and 0 not in values.shape  # the parse refuses such a file
        and genes.dtype.kind == samples.dtype.kind == "U"
        and genes.shape == values.shape[:1]
        and samples.shape == values.shape[1:]
    ):
        return None
    return ExpressionMatrix(
        gene_ids=genes.tolist(), sample_ids=samples.tolist(), values=values
    )


def _text(array: np.ndarray) -> str | None:
    """The string that a 0-d unicode array holds, else None."""
    return array.item() if array.dtype.kind == "U" and array.ndim == 0 else None


def check_savable(matrix: ExpressionMatrix) -> None:
    """Refuse a matrix that save_matrix cannot write for load_matrix to read back.

    Raises BetscanError naming the first id that holds a tab, a double
    quote, a CR, an LF or a NUL, or that starts or ends with whitespace
    (the parse strips it), or else the gene and sample of the first value
    that is not finite, which no screen accepts.
    """
    _check_ids(matrix, "\t", "matrix.tsv")
    faulty = np.argwhere(~np.isfinite(matrix.values))
    if len(faulty):
        g, j = faulty[0].tolist()
        raise BetscanError(
            f"gene {matrix.gene_ids[g]!r}, sample {matrix.sample_ids[j]!r}: "
            f"non-finite value {float(matrix.values[g, j])!r}"
        )


def _check_ids(matrix: ExpressionMatrix, delim: str, target: str) -> None:
    """Refuse the first id that target, a matrix delimited by delim, cannot carry."""
    for kind, ids in (("sample", matrix.sample_ids), ("gene", matrix.gene_ids)):
        for name in ids:
            if found := _UNSAVABLE[delim].search(name):
                fault = f"holds {found.group()!r}"
            elif name != name.strip():
                fault = "starts or ends with whitespace"
            else:
                continue
            raise BetscanError(
                f"{kind} id {name!r} {fault}, which {target} cannot carry"
            )


def load_labels(path) -> dict[str, str]:
    """Read a two-column CSV (header 'sample_id,label') into a mapping.

    A sample may be listed again only with the same label.  A record that
    read_csv refuses raises BetscanError naming its line.
    """
    records = read_csv(path)
    if [c.strip() for c in next(records)[1][:2]] != ["sample_id", "label"]:
        raise MatrixParseError(path, 1, 1, "expected header 'sample_id,label'")
    first: dict[str, tuple[str, int]] = {}  # each sample's label and its line
    for line_no, row in records:
        if len(row) < 2:
            raise MatrixParseError(path, line_no, 1, "expected two columns")
        sample, label = row[0].strip(), row[1].strip()
        was, line = first.setdefault(sample, (label, line_no))
        if was != label:
            raise BetscanError(
                f"{path}: sample {sample!r} is labelled {was!r} on line {line} "
                f"and {label!r} on line {line_no}"
            )
    return {sample: label for sample, (label, _) in first.items()}


def filter_zero_heavy(
    matrix: ExpressionMatrix, zero_fraction_threshold: float = 0.20
) -> tuple[ExpressionMatrix, PreprocessReport]:
    """Drop genes whose fraction of zero entries strictly exceeds the threshold."""
    if not 0.0 <= zero_fraction_threshold <= 1.0:
        raise ValueError("threshold must be within [0, 1]")
    frac = (matrix.values == 0.0).mean(axis=1)
    keep = frac <= zero_fraction_threshold
    report = PreprocessReport()
    for g in np.nonzero(~keep)[0]:
        report.genes_dropped.append(
            {
                "gene": matrix.gene_ids[int(g)],
                "reason": "zero_fraction",
                "zero_fraction": float(frac[g]),
            }
        )
    genes = [g for g, k in zip(matrix.gene_ids, keep) if k]
    return replace(matrix, gene_ids=genes, values=matrix.values[keep]), report


def reset_median_imputed(column) -> np.ndarray:
    """Send all but the first occurrence of a duplicated median to the minimum.

    A value spike exactly at the column median is the signature of
    median-imputed zero counts; the first occurrence (in sample order)
    stays, every other one becomes the column minimum.  No-op when the
    median is not a duplicated data value.
    """
    col = np.asarray(column, dtype=np.float64).copy()
    med = float(np.median(col))
    hits = np.nonzero(col == med)[0]
    if hits.shape[0] > 1:
        col[hits[1:]] = col.min()
    return col


def jitter_minimum_ties(column, seed: int) -> np.ndarray:
    """Spread tied minima over (min, second_unique_min), keeping one holdout.

    The first occurrence of the minimum keeps its exact value; every other
    occurrence gains an independent draw from the open interval
    (0, second_unique_min - min).  Jittered values stay strictly below the
    second-smallest distinct value, so the ordering of all non-minimum
    observations is untouched.  Draws come from Philox(key=seed); the same
    seed reproduces the same output bit for bit.  Raises NonFiniteError when
    the minimum is tied and it or the second-smallest value is not finite,
    and DegenerateColumnError when fewer doubles lie strictly between the
    two than there are ties to move, or when _JITTER_DRAWS draws in a row
    are rejected.
    """
    col = np.asarray(column, dtype=np.float64).copy()
    uniq = np.unique(col)
    if uniq.shape[0] < 2:
        raise DegenerateColumnError("all values equal; nothing to rank")
    lo, second = float(uniq[0]), float(uniq[1])
    gap = second - lo
    idx = np.nonzero(col == lo)[0]
    if idx.shape[0] < 2:
        return col
    if not (np.isfinite(lo) and np.isfinite(second)):  # no draw lands in the gap
        at = int(np.argmin(np.isfinite(col)))
        raise NonFiniteError(at, float(col[at]))
    movers = idx[1:]
    tied = f"its minimum {lo!r} occurs {idx.shape[0]} times"
    room = _float_order(second) - _float_order(lo) - 1
    if room < movers.shape[0]:
        raise DegenerateColumnError(
            f"{tied}, and {room} double(s) lie between it and the next "
            f"value {second!r}, too few to jitter the ties apart"
        )
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)))
    for _ in range(_JITTER_DRAWS):
        draws = rng.random(movers.shape[0])
        jittered = lo + draws * gap
        # open interval and distinctness; float collisions are ~impossible
        # but the downstream rank transform cannot tolerate them
        if (
            (draws > 0.0).all()
            and (jittered < second).all()
            and np.unique(jittered).shape[0] == movers.shape[0]
            and not np.isin(jittered, [lo]).any()
        ):
            col[movers] = jittered
            return col
    raise DegenerateColumnError(
        f"{tied}, and {_JITTER_DRAWS} draws found no distinct values for "
        f"the ties between it and the next value {second!r}"
    )


def _float_order(x: float) -> int:
    """x's place among the doubles: neighbours differ by 1, and -0.0 and 0.0 share 0."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & ((1 << 63) - 1))


def subset_by_labels(matrix: ExpressionMatrix, keep) -> ExpressionMatrix:
    """Retain the samples whose label is in `keep`."""
    if matrix.labels is None:
        raise ValueError("matrix has no sample labels")
    keep = set(keep)
    unknown = keep - set(matrix.labels)
    if unknown:
        raise UnknownLabelError(unknown)
    mask = np.array([lab in keep for lab in matrix.labels], dtype=bool)
    return ExpressionMatrix(
        gene_ids=list(matrix.gene_ids),
        sample_ids=[s for s, m in zip(matrix.sample_ids, mask) if m],
        values=matrix.values[:, mask],
        labels=[lab for lab, m in zip(matrix.labels, mask) if m],
    )


def upper_quartile_log2(
    matrix: ExpressionMatrix, target_quartile: float
) -> ExpressionMatrix:
    """Approximate upper-quartile normalization followed by log2(x + 1).

    Each sample is scaled so the 75th percentile of its nonzero values
    equals target_quartile, then log2(x + 1) is applied.  This is a local
    stand-in for consortium-grade normalization, close but not identical
    to published pipelines; treat the output as approximate.  Raises
    BetscanError for a target that is not finite and above 0, and names
    the gene and sample of the first negative count.
    """
    if not 0 < target_quartile < np.inf:
        raise BetscanError(f"uq_target must be finite and above 0, got {target_quartile}")
    negative = np.argwhere(matrix.values < 0)
    if len(negative):
        g, j = negative[0].tolist()
        raise BetscanError(
            f"gene {matrix.gene_ids[g]!r}, sample {matrix.sample_ids[j]!r}: "
            f"negative count {float(matrix.values[g, j])!r}"
        )
    out = np.empty_like(matrix.values)
    for j, sample in enumerate(matrix.sample_ids):
        col = matrix.values[:, j]
        nz = col[col > 0]
        if nz.size == 0:
            raise DegenerateSampleError(sample, "no nonzero counts")
        q = float(np.percentile(nz, 75))
        if q <= 0:
            raise DegenerateSampleError(sample, "zero upper quartile")
        # a count scaled past the float range becomes inf, which
        # check_savable names
        with np.errstate(over="ignore"):
            out[:, j] = np.log2(col * (target_quartile / q) + 1.0)
    return replace(matrix, values=out)


def gene_stream_key(seed: int, gene_index: int) -> int:
    """Philox key for one gene's jitter stream: seed in the high 64 bits."""
    return ((seed & _MASK64) << 64) | (gene_index & _MASK64)


def run_pipeline(
    matrix: ExpressionMatrix,
    seed: int,
    zero_fraction_threshold: float = 0.20,
) -> tuple[ExpressionMatrix, PreprocessReport]:
    """filter -> reset -> jitter, returning the cleaned matrix and a report.

    The reset and the jitter run on blocks of _PIPELINE_ROWS genes, in place
    on the filtered values, which filter_zero_heavy has copied; each block
    is sorted once.  The values and the report are those of
    reset_median_imputed and jitter_minimum_ties applied gene by gene.

    A gene with one distinct value has no ranks: _drop_constant_genes_in_place
    drops it after the jitter, so every other gene keeps its row index and its
    jitter stream, and refuses a matrix with fewer than two genes left.
    """
    filtered, report = filter_zero_heavy(matrix, zero_fraction_threshold)
    report.jitter_seed = seed
    for start in range(0, filtered.n_genes, _PIPELINE_ROWS):
        _clean_block(filtered, start, seed, report)

    earlier = f"the zero filter (zero fraction above {zero_fraction_threshold:g})"
    return _drop_constant_genes_in_place(filtered, report, earlier), report


def _clean_block(
    matrix: ExpressionMatrix, start: int, seed: int, report: PreprocessReport
) -> None:
    """Reset the median spikes and jitter the tied minima of one block of genes."""
    block = matrix.values[start : start + _PIPELINE_ROWS]
    genes = matrix.gene_ids[start : start + len(block)]
    n = block.shape[1]
    ordered = np.sort(block, axis=1)
    # np.median's value: the middle value or the mean of the middle two,
    # and nan for a gene that holds a nan, which sorts last
    if n % 2:
        median = ordered[:, n // 2]
    else:
        median = (ordered[:, n // 2 - 1] + ordered[:, n // 2]) / 2
    median = np.where(np.isnan(ordered[:, -1]), np.nan, median)
    spike = block == median[:, None]
    dup = spike.sum(axis=1)
    # a gene of one value is left as it is, for _drop_constant_genes_in_place
    reset = (dup > 1) & (dup < n)
    for g in np.flatnonzero(reset).tolist():
        report.medians_reset[genes[g]] = int(dup[g]) - 1
    # every median value but the first goes to the gene's minimum
    spike[np.arange(len(block)), spike.argmax(axis=1)] = False
    spike &= reset[:, None]
    np.copyto(block, block.min(axis=1)[:, None], where=spike)

    # the reset moves values onto the minimum and keeps one at the median, so
    # the distinct values, and the next one above the minimum, stay the same
    low = ordered[:, :1]
    second = ordered[np.arange(len(block)), (ordered != low).argmax(axis=1)]
    tied = ((block == low).sum(axis=1) > 1) & (dup < n)
    for g in np.flatnonzero(tied).tolist():
        report.jitter_widths[genes[g]] = float(second[g] - low[g, 0])
        try:
            block[g] = jitter_minimum_ties(block[g], gene_stream_key(seed, start + g))
        except DegenerateColumnError as exc:
            raise DegenerateColumnError(f"gene {genes[g]!r}: {exc}") from None


def _drop_constant_genes_in_place(
    matrix: ExpressionMatrix, report: PreprocessReport, earlier: str
) -> ExpressionMatrix:
    """matrix without its genes of one value, each listed in report as constant.

    Raises BetscanError when fewer than two genes are left, since a screen
    needs a pair; the message counts the genes that report lists as dropped
    before, by the step that earlier names.  The kept rows move up a block
    of _PIPELINE_ROWS genes at a time within matrix.values, so the matrix
    is not copied, and the result's values are the leading rows of
    matrix.values.  So that array must be one that no other matrix shares:
    run_pipeline's filtered copy, or the copy that subset_by_labels returns.
    """
    varies = (matrix.values != matrix.values[:, :1]).any(axis=1)
    constant = list(itertools.compress(matrix.gene_ids, ~varies))
    left = matrix.n_genes - len(constant)
    if left < 2:
        dropped = len(report.genes_dropped)
        raise BetscanError(
            f"{left} gene(s) left of {matrix.n_genes + dropped}: {earlier} "
            f"dropped {dropped} and {len(constant)} were constant; "
            "a screen needs at least 2"
        )
    report.genes_dropped += [{"gene": gene, "reason": "constant"} for gene in constant]
    if not constant:
        return matrix
    values, kept = matrix.values, 0
    for start in range(0, len(values), _PIPELINE_ROWS):
        block = slice(start, start + _PIPELINE_ROWS)
        rows = values[block][varies[block]]  # a copy of one block's kept rows
        values[kept : kept + len(rows)] = rows
        kept += len(rows)
    genes = list(itertools.compress(matrix.gene_ids, varies))
    return replace(matrix, gene_ids=genes, values=values[:kept])
