import codecs
import csv
import math
import warnings

import numpy as np
import pytest

import resonatorlab as rl
from conftest import grid_around, resonator
from resonatorlab.io import parse_field_csv, parse_trace_csv, write_field_csv, write_trace_csv


def make_trace(power=-140.0, points=64):
    res = resonator()
    return rl.generate_linear_trace(
        res,
        rl.EnvironmentParams(amplitude=0.9, alpha=0.2, tau=10e-9),
        grid_around(res, points=points),
        power,
        rl.NoiseSpec(snr_db=40.0, seed=5),
    )


class TestTraceRoundTrip:
    def test_re_im_round_trip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        back = parse_trace_csv(path)
        assert isinstance(back, rl.FrequencyTrace)
        np.testing.assert_array_equal(back.frequencies, trace.frequencies)
        np.testing.assert_array_equal(back.values, trace.values)
        assert back.drive_power == -140.0

    def test_mag_phase_matches_re_im(self, tmp_path):
        trace = make_trace()
        p1 = tmp_path / "cart.csv"
        p2 = tmp_path / "polar.csv"
        write_trace_csv(p1, trace)
        csv_writer_reference(p2, trace, "mag_phase")
        cart = parse_trace_csv(p1)
        polar = parse_trace_csv(p2)
        np.testing.assert_allclose(polar.values, cart.values, rtol=1e-9, atol=1e-12)

    def test_no_power_column_gives_unknown_power(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("freq_hz,re,im\n1e9,1.0,0.0\n2e9,0.5,0.1\n")
        trace = parse_trace_csv(path)
        assert trace.drive_power is None
        assert len(trace) == 2

    def test_sweep_round_trip(self, tmp_path):
        res = resonator()
        params = rl.KerrParams(
            linear=res, environment=rl.EnvironmentParams(), kerr=1e5, phi=0.0
        )
        sweep = rl.generate_kerr_sweep(
            params,
            grid_around(res, points=32),
            [-150.0, -140.0, -130.0],
            "lowest",
            rl.NoiseSpec(snr_db=40.0, seed=1),
        )
        path = tmp_path / "sweep.csv"
        write_trace_csv(path, sweep)
        back = parse_trace_csv(path)
        assert isinstance(back, rl.PowerSweep)
        assert len(back) == 3
        for a, b in zip(back.traces, sweep.traces):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.drive_power == b.drive_power


class TestTraceSchema:
    def test_missing_value_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,re\n1e9,1.0\n2e9,1.0\n")
        with pytest.raises(rl.SchemaError, match="re"):
            parse_trace_csv(path)

    def test_missing_freq_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f,re,im\n1e9,1.0,0.0\n")
        with pytest.raises(rl.SchemaError, match="freq_hz"):
            parse_trace_csv(path)

    def test_ambiguous_forms(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,re,im,mag_db,phase_rad\n1e9,1,0,0,0\n")
        with pytest.raises(rl.SchemaError, match="ambiguous"):
            parse_trace_csv(path)

    def test_duplicate_frequency_row_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,re,im\n1e9,1,0\n2e9,1,0\n2e9,1,0\n")
        with pytest.raises(rl.DataError, match="row 4"):
            parse_trace_csv(path)

    def test_unparseable_number_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,re,im\n1e9,1,0\n2e9,x,0\n")
        with pytest.raises(rl.DataError, match="row 3"):
            parse_trace_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(rl.SchemaError):
            parse_trace_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("freq_hz,re,im\n")
        with pytest.raises(rl.DataError, match="no data rows"):
            parse_trace_csv(path)


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        truth = rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3)
        points = rl.generate_field_sweep(truth, np.linspace(0, 0.06, 13), 5e6, seed=2)
        path = tmp_path / "field.csv"
        write_field_csv(path, points)
        back = parse_field_csv(path)
        assert [(p.field, p.resonance, p.sigma) for p in back] == [
            (p.field, p.resonance, p.sigma) for p in points
        ]

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("field_t,fr_hz\n0.0,7e9\n")
        with pytest.raises(rl.SchemaError, match="sigma_hz"):
            parse_field_csv(path)

    def test_invalid_point_reported_with_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("field_t,fr_hz,sigma_hz\n0.0,7e9,1e6\n0.01,7e9,0.0\n")
        with pytest.raises(rl.DataError, match="row 3"):
            parse_field_csv(path)


def csv_writer_reference(path, data, form):
    """Row-by-row ``csv.writer`` output of a trace or sweep, in either form."""
    traces = data.traces if isinstance(data, rl.PowerSweep) else (data,)
    include_power = isinstance(data, rl.PowerSweep) or traces[0].drive_power is not None
    value_cols = ["re", "im"] if form == "re_im" else ["mag_db", "phase_rad"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", *value_cols] + (["power_dbm"] if include_power else []))
        for trace in traces:
            for f, v in zip(trace.frequencies, trace.values):
                if form == "re_im":
                    cells = [repr(float(f)), repr(float(v.real)), repr(float(v.imag))]
                else:
                    cells = [repr(float(f)), repr(20.0 * math.log10(abs(v))), repr(float(np.angle(v)))]
                if include_power:
                    cells.append(repr(float(trace.drive_power)))
                writer.writerow(cells)


class TestWriteBytes:
    @pytest.mark.parametrize("kind", ["trace", "trace_with_power", "sweep"])
    def test_bytes_equal_a_csv_writer(self, tmp_path, kind):
        if kind == "sweep":
            res = resonator()
            params = rl.KerrParams(
                linear=res, environment=rl.EnvironmentParams(), kerr=1e5, phi=0.1
            )
            data = rl.generate_kerr_sweep(
                params,
                grid_around(res, points=40),
                [-150.0, -137.5, -125.0],
                "lowest",
                rl.NoiseSpec(snr_db=30.0, seed=4),
            )
        else:
            data = make_trace(power=-141.25 if kind == "trace_with_power" else None)
        write_trace_csv(tmp_path / "mine.csv", data)
        csv_writer_reference(tmp_path / "reference.csv", data, "re_im")
        mine = (tmp_path / "mine.csv").read_bytes()
        assert mine == (tmp_path / "reference.csv").read_bytes()
        assert mine.count(b"\r\n") == mine.count(b"\n") == 1 + sum(
            len(t) for t in (data.traces if kind == "sweep" else (data,))
        )

    def test_field_bytes_equal_a_csv_writer(self, tmp_path):
        points = rl.generate_field_sweep(
            rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3),
            np.linspace(0, 0.06, 7),
            5e6,
            seed=3,
        )
        write_field_csv(tmp_path / "mine.csv", points)
        with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["field_t", "fr_hz", "sigma_hz"])
            for p in points:
                writer.writerow([repr(p.field), repr(p.resonance), repr(p.sigma)])
        assert (tmp_path / "mine.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


HEADER = "freq_hz,re,im"
POLAR = "freq_hz,mag_db,phase_rad"

#: Spellings of the rows (1 GHz, 1 + 0j) and (2 GHz, 0.5 + 0.1j) that parse alike.
TWO_ROWS = {
    "lf": HEADER + "\n1e9,1.0,0.0\n2e9,0.5,0.1\n",
    "crlf": HEADER + "\r\n1e9,1.0,0.0\r\n2e9,0.5,0.1\r\n",
    "cr": HEADER + "\r1e9,1.0,0.0\r2e9,0.5,0.1\r",
    "no_final_newline": HEADER + "\n1e9,1.0,0.0\n2e9,0.5,0.1",
    "blank_lines": HEADER + "\n\n1e9,1.0,0.0\r\n\r\n2e9,0.5,0.1\n\n\n",
    "whitespace_only_lines": HEADER + "\n   \n1e9,1.0,0.0\n\t\n2e9,0.5,0.1\n  \n",
    "empty_cell_lines": HEADER + "\n1e9,1.0,0.0\n , ,\n,,\n2e9,0.5,0.1\n",
    "quoted_numbers": HEADER + '\n"1e9","1.0","0.0"\n2e9,"0.5",0.1\n',
    "spaces_around_numbers": HEADER + "\n 1e9 , 1.0 ,0.0\n2e9,0.5 , 0.1\n",
    "float_syntax": HEADER + "\n1_000_000_000,+1.0,-0.0\n2e9,.5,1e-1\n",
    "text_in_an_extra_column": "freq_hz,re,im,note\n1e9,1.0,0.0,a\n2e9,0.5,0.1,b\n",
    "header_case_and_order": " IM ,Freq_Hz,re\n0.0,1e9,1.0\n0.1,2e9,0.5\n",
}

#: Files the reader refuses, with the exception and message it gives after the path.
REFUSED = {
    "hash_cell": (
        HEADER + "\n1e9,1.0,0.0\n#2e9,0.5,0.1\n",
        rl.DataError,
        "row 3, column 'freq_hz': cannot parse '#2e9' as a number",
    ),
    "hash_line": (
        HEADER + "\n1e9,1.0,0.0\n# a note\n2e9,0.5,0.1\n",
        rl.DataError,
        "row 3 has 1 fields, header has 3",
    ),
    "hash_after_a_number": (
        HEADER + "\n1e9,1.0,0.0 # a note\n2e9,0.5,0.1\n",
        rl.DataError,
        "row 2, column 'im': cannot parse '0.0 # a note' as a number",
    ),
    "long_row": (
        HEADER + "\n1e9,1.0,0.0\n2e9,0.5,0.1,7\n",
        rl.DataError,
        "row 3 has 4 fields, header has 3",
    ),
    "short_row": (
        HEADER + "\n1e9,1.0,0.0\n2e9,0.5\n",
        rl.DataError,
        "row 3 has 2 fields, header has 3",
    ),
    "every_row_long": (
        HEADER + "\n1e9,1.0,0.0,\n2e9,0.5,0.1,\n",
        rl.DataError,
        "row 2 has 4 fields, header has 3",
    ),
    "bad_number_then_ragged_row": (
        HEADER + "\n1e9,x,0.0\n2e9,0.5\n",
        rl.DataError,
        "row 3 has 2 fields, header has 3",
    ),
    "bad_im_before_bad_re": (
        HEADER + "\n1e9,1.0,y\n2e9,x,0.1\n",
        rl.DataError,
        "row 3, column 're': cannot parse 'x' as a number",
    ),
    "empty_cell": (
        HEADER + "\n1e9,,0.0\n2e9,0.5,0.1\n",
        rl.DataError,
        "row 2, column 're': cannot parse '' as a number",
    ),
    "quoted_line_break": (
        HEADER + '\n"1e9",1.0,0.0\n"2\ne9",0.5,0.1\n',
        rl.DataError,
        "row 3, column 'freq_hz': cannot parse '2\\ne9' as a number",
    ),
    "nan_value": (
        HEADER + "\n1e9,nan,0.0\n2e9,0.5,0.1\n",
        rl.DataError,
        "row 2, column 're': must be finite, got nan",
    ),
    "inf_im": (
        HEADER + "\n1e9,1.0,0.0\n2e9,0.5,-inf\n",
        rl.DataError,
        "row 3, column 'im': must be finite, got -inf",
    ),
    "nan_mag_db": (
        POLAR + "\n1e9,0.0,0.0\n2e9,nan,0.1\n",
        rl.DataError,
        "row 3, column 'mag_db': must be finite, got nan",
    ),
    "minus_inf_mag_db": (
        POLAR + "\n1e9,-inf,0.0\n2e9,-3.0,0.1\n",
        rl.DataError,
        "row 2, column 'mag_db': must be finite, got -inf",
    ),
    "inf_phase_after_blank_lines": (
        POLAR + "\n\n1e9,0.0,0.0\n\n2e9,-3.0,inf\n",
        rl.DataError,
        "row 3, column 'phase_rad': must be finite, got inf",
    ),
    "mag_db_overflowing_the_magnitude": (
        POLAR + "\n1e9,0.0,0.0\n1.5e9,-3.0,0.1\n2e9,7000,0\n",
        rl.DataError,
        "row 4, column 'mag_db': magnitude must be finite, got inf",
    ),
    "inf_frequency": (
        HEADER + "\n1e9,1.0,0.0\ninf,0.5,0.1\n",
        rl.DataError,
        "row 3: frequency must be positive and finite",
    ),
    "nan_frequency_after_blank_lines": (
        HEADER + "\n\n1e9,1.0,0.0\n\nnan,0.5,0.1\n",
        rl.DataError,
        "row 3: frequency must be positive and finite",
    ),
    "nan_power": (
        HEADER + ",power_dbm\n1e9,1.0,0.0,-140\n2e9,0.5,0.1,nan\n",
        rl.DataError,
        "row 3, column 'power_dbm': must be finite, got nan",
    ),
    "inf_power_after_blank_lines": (
        HEADER + ",power_dbm\n\n1e9,1.0,0.0,-inf\n\n2e9,0.5,0.1,-140\n",
        rl.DataError,
        "row 2, column 'power_dbm': must be finite, got -inf",
    ),
    "header_only": (HEADER + "\n", rl.DataError, "no data rows"),
    "header_only_no_newline": (HEADER, rl.DataError, "no data rows"),
    "header_then_blank_lines": (HEADER + "\n\n  \r\n", rl.DataError, "no data rows"),
}


class TestParseSyntax:
    @pytest.mark.parametrize("name", sorted(TWO_ROWS))
    def test_spellings_of_two_rows(self, tmp_path, name):
        path = tmp_path / "t.csv"
        path.write_bytes(TWO_ROWS[name].encode())
        trace = parse_trace_csv(path)
        assert trace.drive_power is None
        assert trace.frequencies.tolist() == [1e9, 2e9]
        assert trace.values.tolist() == [1.0 + 0.0j, 0.5 + 0.1j]

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_refused_files_keep_their_errors(self, tmp_path, name):
        text, error, message = REFUSED[name]
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error) as exc:
                parse_trace_csv(path)
        assert str(exc.value) == f"{path}: {message}"
        assert caught == []  # e.g. no "input contained no data" from numpy

    def test_power_sweep_rows_grouped_by_power(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(
            b"freq_hz,re,im,power_dbm\r\n1e9,1.0,0.0,-140\r\n2e9,0.5,0.1,-140\r\n"
            b'1e9,0.9,0.0,"-130"\r\n2e9,0.4,0.1,-130\r\n'
        )
        sweep = parse_trace_csv(path)
        assert [t.drive_power for t in sweep.traces] == [-140.0, -130.0]
        assert sweep.traces[1].values.tolist() == [0.9 + 0.0j, 0.4 + 0.1j]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as some Windows export tools write it, before the header
        trace, field = tmp_path / "trace.csv", tmp_path / "field.csv"
        write_trace_csv(trace, make_trace())
        truth = rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3)
        write_field_csv(field, rl.generate_field_sweep(truth, np.linspace(0, 0.06, 13), 5e6, seed=2))
        for path in (trace, field):
            bom = tmp_path / f"bom-{path.name}"
            bom.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        plain, marked = parse_trace_csv(trace), parse_trace_csv(tmp_path / "bom-trace.csv")
        assert np.array_equal(marked.frequencies, plain.frequencies)
        assert np.array_equal(marked.values, plain.values)
        assert marked.drive_power == plain.drive_power
        rows = [
            [(p.field, p.resonance, p.sigma) for p in parse_field_csv(path)]
            for path in (field, tmp_path / "bom-field.csv")
        ]
        assert rows[1] == rows[0]

    def test_field_file_uses_the_same_reader(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b'field_t,fr_hz,sigma_hz\r\n"0.0",7e9,1e6\r\n\r\n0.01,6.9e9,1e6')
        points = parse_field_csv(path)
        assert [(p.field, p.resonance, p.sigma) for p in points] == [
            (0.0, 7e9, 1e6),
            (0.01, 6.9e9, 1e6),
        ]
        path.write_bytes(b"field_t,fr_hz,sigma_hz\n0.0,7e9\n")
        with pytest.raises(rl.DataError) as exc:
            parse_field_csv(path)
        assert str(exc.value) == f"{path}: row 2 has 2 fields, header has 3"
