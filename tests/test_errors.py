import numpy as np

from salience.errors import write_csv


def test_write_csv_encodes_each_cell_by_one_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(["a", "b", "c", "d"], [(1, 0.1, None, "x"), (np.int64(2), np.float64(1 / 3), np.float64(-0.0), True)],
              path)
    assert path.read_bytes() == b"a,b,c,d\r\n1,0.1,,x\r\n2,0.3333333333333333,-0.0,True\r\n"
