"""Tests for Bookshelf, edge-list and hgr IO."""

import pytest

from repro.errors import ParseError
from repro.generators import default_bigblue1_like, generate_ispd_like
from repro.io.bookshelf import read_bookshelf, write_bookshelf
from repro.io.edgelist import read_edgelist, write_edgelist
from repro.io.hgr import read_hgr, write_hgr
from repro.netlist.builder import NetlistBuilder
from repro.netlist.validate import validate_netlist


@pytest.fixture
def small_design():
    builder = NetlistBuilder()
    a = builder.add_cell("u1", area=2.0)
    b = builder.add_cell("u2")
    c = builder.add_cell("u3")
    p = builder.add_cell("p0", fixed=True)
    builder.add_net("n_a", [a, b, c])
    builder.add_net("n_b", [a, p])
    return builder.build()


# ---------------------------------------------------------------- bookshelf
def test_bookshelf_roundtrip(tmp_path, small_design):
    aux = write_bookshelf(small_design, str(tmp_path), "t")
    loaded, placement = read_bookshelf(aux)
    assert loaded.num_cells == small_design.num_cells
    assert loaded.num_nets == small_design.num_nets
    assert loaded.cell_is_fixed(loaded.cell_index("p0"))
    assert placement == {}
    validate_netlist(loaded)


def test_bookshelf_roundtrip_with_placement(tmp_path, small_design):
    coordinates = {i: (float(i), 2.0 * i) for i in range(small_design.num_cells)}
    aux = write_bookshelf(small_design, str(tmp_path), "t", placement=coordinates)
    loaded, placement = read_bookshelf(aux)
    for cell in range(loaded.num_cells):
        original = small_design.cell_name(cell)
        index = loaded.cell_index(original)
        assert placement[index] == pytest.approx(coordinates[cell])


def test_bookshelf_roundtrip_generated(tmp_path):
    netlist, _ = generate_ispd_like(default_bigblue1_like(0.05), seed=1)
    aux = write_bookshelf(netlist, str(tmp_path), "gen")
    loaded, _ = read_bookshelf(aux)
    assert loaded.num_cells == netlist.num_cells
    # Singleton nets are dropped on read; all >=2-pin nets survive.
    expected = sum(1 for n in range(netlist.num_nets) if netlist.net_degree(n) >= 2)
    assert loaded.num_nets == expected


def test_bookshelf_aux_missing_files(tmp_path):
    aux = tmp_path / "bad.aux"
    aux.write_text("RowBasedPlacement : only.wts\n")
    with pytest.raises(ParseError):
        read_bookshelf(str(aux))


def test_bookshelf_bad_net_degree_line(tmp_path):
    (tmp_path / "d.nodes").write_text("UCLA nodes 1.0\n a 1 1\n b 1 1\n")
    (tmp_path / "d.nets").write_text("UCLA nets 1.0\nNetDegree : X n0\n a I\n")
    (tmp_path / "d.aux").write_text("RowBasedPlacement : d.nodes d.nets\n")
    with pytest.raises(ParseError):
        read_bookshelf(str(tmp_path / "d.aux"))


def test_bookshelf_pin_outside_net(tmp_path):
    (tmp_path / "d.nodes").write_text("UCLA nodes 1.0\n a 1 1\n")
    (tmp_path / "d.nets").write_text("UCLA nets 1.0\n a I\n")
    (tmp_path / "d.aux").write_text("RowBasedPlacement : d.nodes d.nets\n")
    with pytest.raises(ParseError):
        read_bookshelf(str(tmp_path / "d.aux"))


def test_bookshelf_unknown_node_in_net(tmp_path):
    (tmp_path / "d.nodes").write_text("UCLA nodes 1.0\n a 1 1\n b 1 1\n")
    (tmp_path / "d.nets").write_text(
        "UCLA nets 1.0\nNetDegree : 2 n0\n a I\n ghost I\n"
    )
    (tmp_path / "d.aux").write_text("RowBasedPlacement : d.nodes d.nets\n")
    with pytest.raises(ParseError):
        read_bookshelf(str(tmp_path / "d.aux"))


def test_bookshelf_pl_skips_filler_cells(tmp_path, small_design):
    coordinates = {i: (float(i), 1.0) for i in range(small_design.num_cells)}
    aux = write_bookshelf(small_design, str(tmp_path), "t", placement=coordinates)
    with open(tmp_path / "t.pl", "a") as handle:
        handle.write("filler_9 5 5 : N\n")
    _, placement = read_bookshelf(aux)
    assert placement == coordinates


def test_bookshelf_lookup_bugs_propagate(tmp_path, small_design, monkeypatch):
    """Only an unknown name is a parse outcome; any other lookup error is a
    bug and surfaces as itself, in .nets and in .pl alike."""
    from repro.netlist.builder import NetlistBuilder as Builder
    from repro.netlist.hypergraph import Netlist

    def broken(self, name):
        raise RuntimeError("lookup bug")

    aux = write_bookshelf(
        small_design, str(tmp_path), "t", placement={0: (1.0, 2.0)}
    )
    with monkeypatch.context() as patch:
        patch.setattr(Builder, "cell_index", broken)
        with pytest.raises(RuntimeError, match="lookup bug"):
            read_bookshelf(aux)
    with monkeypatch.context() as patch:
        patch.setattr(Netlist, "cell_index", broken)
        with pytest.raises(RuntimeError, match="lookup bug"):
            read_bookshelf(aux)


def test_bookshelf_terminal_flag_and_area(tmp_path):
    (tmp_path / "d.nodes").write_text(
        "UCLA nodes 1.0\nNumNodes : 2\n a 4 2\n p 1 1 terminal\n"
    )
    (tmp_path / "d.nets").write_text(
        "UCLA nets 1.0\nNetDegree : 2 n0\n a I : 0 0\n p I : 0 0\n"
    )
    (tmp_path / "d.aux").write_text("RowBasedPlacement : d.nodes d.nets\n")
    loaded, _ = read_bookshelf(str(tmp_path / "d.aux"))
    assert loaded.cell_area(loaded.cell_index("a")) == pytest.approx(8.0)
    assert loaded.cell_is_fixed(loaded.cell_index("p"))


# ---------------------------------------------------------------- edgelist
def test_edgelist_roundtrip(tmp_path, triangle):
    path = str(tmp_path / "g.edges")
    write_edgelist(triangle, path)
    loaded = read_edgelist(path)
    assert loaded.num_cells == 3
    assert loaded.num_nets == 3


def test_edgelist_ignores_comments_and_self_loops(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# comment\na b\na a\nb c # trailing\n")
    loaded = read_edgelist(str(path))
    assert loaded.num_cells == 3
    assert loaded.num_nets == 2


def test_edgelist_bad_line(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("justone\n")
    with pytest.raises(ParseError):
        read_edgelist(str(path))


def test_edgelist_expands_hyperedges(tmp_path, star_netlist):
    path = str(tmp_path / "s.edges")
    write_edgelist(star_netlist, path)
    loaded = read_edgelist(path)
    assert loaded.num_nets == 10  # C(5,2) clique expansion


# ---------------------------------------------------------------- hgr
def test_hgr_roundtrip(tmp_path, two_cliques):
    path = str(tmp_path / "g.hgr")
    write_hgr(two_cliques, path)
    loaded = read_hgr(path)
    assert loaded.num_cells == two_cliques.num_cells
    assert loaded.num_nets == two_cliques.num_nets
    for net in range(loaded.num_nets):
        assert loaded.cells_of_net(net) == two_cliques.cells_of_net(net)


def test_hgr_bad_header(tmp_path):
    path = tmp_path / "bad.hgr"
    path.write_text("notanumber\n")
    with pytest.raises(ParseError):
        read_hgr(str(path))


def test_hgr_wrong_net_count(tmp_path):
    path = tmp_path / "bad.hgr"
    path.write_text("2 3\n1 2\n")
    with pytest.raises(ParseError):
        read_hgr(str(path))


def test_hgr_out_of_range_cell(tmp_path):
    path = tmp_path / "bad.hgr"
    path.write_text("1 2\n1 5\n")
    with pytest.raises(ParseError):
        read_hgr(str(path))


def test_hgr_empty_file(tmp_path):
    path = tmp_path / "empty.hgr"
    path.write_text("")
    with pytest.raises(ParseError):
        read_hgr(str(path))


def test_hgr_comments(tmp_path):
    path = tmp_path / "c.hgr"
    path.write_text("% header comment\n1 2\n1 2 % a net\n")
    loaded = read_hgr(str(path))
    assert loaded.num_nets == 1
