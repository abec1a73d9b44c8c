"""Tests for the list and string command families."""

import pytest

from repro.tcl import Interp, TclError


@pytest.fixture
def tcl():
    return Interp()


class TestListCommands:
    def test_list_quotes(self, tcl):
        assert tcl.eval("list a {b c} d") == "a {b c} d"
        assert tcl.eval('list "x y"') == "{x y}"

    def test_llength(self, tcl):
        assert tcl.eval("llength {a b c}") == "3"
        assert tcl.eval("llength {}") == "0"
        assert tcl.eval("llength {a {b c}}") == "2"

    def test_lindex(self, tcl):
        assert tcl.eval("lindex {a b c} 1") == "b"
        assert tcl.eval("lindex {a b c} end") == "c"
        assert tcl.eval("lindex {a b c} 99") == ""

    def test_lrange(self, tcl):
        assert tcl.eval("lrange {a b c d} 1 2") == "b c"
        assert tcl.eval("lrange {a b c d} 2 end") == "c d"
        assert tcl.eval("lrange {a b c} 5 9") == ""

    def test_lappend(self, tcl):
        tcl.eval("lappend l a")
        tcl.eval("lappend l {b c}")
        assert tcl.eval("set l") == "a {b c}"
        assert tcl.eval("llength $l") == "2"

    def test_linsert(self, tcl):
        assert tcl.eval("linsert {a c} 1 b") == "a b c"
        assert tcl.eval("linsert {a b} 0 z") == "z a b"
        assert tcl.eval("linsert {a b} end x") == "a b x"

    def test_lreplace(self, tcl):
        assert tcl.eval("lreplace {a b c d} 1 2 X Y Z") == "a X Y Z d"
        assert tcl.eval("lreplace {a b c} 0 0") == "b c"

    def test_lsearch(self, tcl):
        assert tcl.eval("lsearch {a b c} b") == "1"
        assert tcl.eval("lsearch {a b c} z") == "-1"
        assert tcl.eval("lsearch -exact {a* b c} a*") == "0"
        assert tcl.eval("lsearch -glob {foo bar baz} b*") == "1"
        assert tcl.eval("lsearch -regexp {foo bar baz} z$") == "2"

    def test_lsort(self, tcl):
        assert tcl.eval("lsort {banana apple cherry}") == "apple banana cherry"
        assert tcl.eval("lsort -integer {10 2 33}") == "2 10 33"
        assert tcl.eval("lsort -real {1.5 0.2 10.0}") == "0.2 1.5 10.0"
        assert tcl.eval("lsort -decreasing {a b c}") == "c b a"

    def test_lsort_command(self, tcl):
        tcl.eval("proc bylen {a b} {expr [string length $a] - [string length $b]}")
        assert tcl.eval("lsort -command bylen {ccc a bb}") == "a bb ccc"

    def test_concat(self, tcl):
        assert tcl.eval("concat a {b c} d") == "a b c d"
        assert tcl.eval("concat {a b} {}") == "a b"

    def test_join(self, tcl):
        assert tcl.eval("join {a b c} -") == "a-b-c"
        assert tcl.eval("join {a b c}") == "a b c"

    def test_split(self, tcl):
        assert tcl.eval("split a:b:c :") == "a b c"
        assert tcl.eval("split {a b}") == "a b"
        assert tcl.eval("llength [split abc {}]") == "3"
        assert tcl.eval("split a::b :") == "a {} b"


class TestStringCommand:
    def test_length(self, tcl):
        assert tcl.eval("string length hello") == "5"

    @pytest.mark.parametrize("script, usage", [
        ("string", "string option arg ?arg ...?"),
        ("string length a b", "string length string"),
        ("string index abc", "string index string charIndex"),
    ])
    def test_wrong_args(self, tcl, script, usage):
        with pytest.raises(TclError) as info:
            tcl.eval(script)
        assert str(info.value) == 'wrong # args: should be "%s"' % usage

    def test_index(self, tcl):
        assert tcl.eval("string index hello 1") == "e"
        assert tcl.eval("string index hello end") == "o"
        assert tcl.eval("string index hello 99") == ""

    def test_range(self, tcl):
        assert tcl.eval("string range hello 1 3") == "ell"
        assert tcl.eval("string range hello 2 end") == "llo"

    def test_first_last(self, tcl):
        assert tcl.eval("string first l hello") == "2"
        assert tcl.eval("string last l hello") == "3"
        assert tcl.eval("string first z hello") == "-1"

    def test_compare(self, tcl):
        assert tcl.eval("string compare abc abd") == "-1"
        assert tcl.eval("string compare abc abc") == "0"
        assert tcl.eval("string compare b a") == "1"

    def test_case_conversion(self, tcl):
        assert tcl.eval("string toupper hello") == "HELLO"
        assert tcl.eval("string tolower HeLLo") == "hello"

    def test_trim(self, tcl):
        assert tcl.eval("string trim {  x  }") == "x"
        assert tcl.eval("string trimleft xxyxx x") == "yxx"
        assert tcl.eval("string trimright xxyxx x") == "xxy"

    def test_match(self, tcl):
        assert tcl.eval("string match f* foo") == "1"
        assert tcl.eval("string match f?o foo") == "1"
        assert tcl.eval("string match {[a-c]x} bx") == "1"
        assert tcl.eval("string match {[a-c]x} dx") == "0"
        assert tcl.eval("string match *z foo") == "0"

    def test_wordend_wordstart(self, tcl):
        assert tcl.eval("string wordend {hello world} 0") == "5"
        assert tcl.eval("string wordstart {hello world} 8") == "6"


class TestFormat:
    def test_basic(self, tcl):
        assert tcl.eval("format %d 42") == "42"
        assert tcl.eval("format %5d 42") == "   42"
        assert tcl.eval("format %-5d| 42") == "42   |"
        assert tcl.eval("format %05d 42") == "00042"

    def test_string_and_char(self, tcl):
        assert tcl.eval("format %s hello") == "hello"
        assert tcl.eval("format %c 65") == "A"
        assert tcl.eval("format %.2s hello") == "he"

    def test_float(self, tcl):
        assert tcl.eval("format %.2f 3.14159") == "3.14"
        assert tcl.eval("format %e 10000.0").startswith("1.0")

    def test_hex_octal(self, tcl):
        assert tcl.eval("format %x 255") == "ff"
        assert tcl.eval("format %X 255") == "FF"
        assert tcl.eval("format %o 8") == "10"

    def test_percent_literal(self, tcl):
        assert tcl.eval("format %d%% 50") == "50%"

    def test_multiple_args(self, tcl):
        assert tcl.eval("format {%s=%d} x 1") == "x=1"

    def test_missing_args_raises(self, tcl):
        with pytest.raises(TclError, match="not enough arguments"):
            tcl.eval("format %d")


class TestScan:
    def test_basic_decimal(self, tcl):
        assert tcl.eval("scan {42 7} {%d %d} a b") == "2"
        assert tcl.eval("set a") == "42"
        assert tcl.eval("set b") == "7"

    def test_string_conversion(self, tcl):
        tcl.eval("scan {hello world} %s w")
        assert tcl.eval("set w") == "hello"

    def test_float_conversion(self, tcl):
        tcl.eval("scan 3.25 %f x")
        assert tcl.eval("set x") == "3.25"

    def test_char_conversion(self, tcl):
        tcl.eval("scan A %c code")
        assert tcl.eval("set code") == "65"

    def test_partial_match(self, tcl):
        assert tcl.eval("scan {12 abc} {%d %d} a b") == "1"

    def test_hex(self, tcl):
        tcl.eval("scan ff %x v")
        assert tcl.eval("set v") == "255"


class TestRegexp:
    def test_match(self, tcl):
        assert tcl.eval("regexp {^h.*o$} hello") == "1"
        assert tcl.eval("regexp {^z} hello") == "0"

    def test_capture_groups(self, tcl):
        tcl.eval(r"regexp {(\d+)-(\d+)} {range 10-20 here} whole a b")
        assert tcl.eval("set whole") == "10-20"
        assert tcl.eval("set a") == "10"
        assert tcl.eval("set b") == "20"

    def test_nocase(self, tcl):
        assert tcl.eval("regexp -nocase HELLO hello") == "1"

    def test_indices(self, tcl):
        tcl.eval("regexp -indices {l+} hello span")
        assert tcl.eval("set span") == "2 3"

    def test_bad_pattern(self, tcl):
        with pytest.raises(TclError, match="couldn't compile"):
            tcl.eval("regexp {[} x")


class TestRegsub:
    def test_single(self, tcl):
        assert tcl.eval("regsub o foo 0 out") == "1"
        assert tcl.eval("set out") == "f0o"

    def test_all(self, tcl):
        assert tcl.eval("regsub -all o foo 0 out") == "2"
        assert tcl.eval("set out") == "f00"

    def test_ampersand(self, tcl):
        tcl.eval("regsub {l+} hello {<&>} out")
        assert tcl.eval("set out") == "he<ll>o"

    def test_group_reference(self, tcl):
        tcl.eval(r"regsub {(h)(e)} hello {\2\1} out")
        assert tcl.eval("set out") == "ehllo"

    def test_no_match(self, tcl):
        assert tcl.eval("regsub z hello x out") == "0"
        assert tcl.eval("set out") == "hello"


class TestSource:
    def test_source_evaluates_the_file(self, tcl, tmp_path):
        path = tmp_path / "lib.tcl"
        path.write_text("set x 4\nexpr {$x * 2}\n")
        assert tcl.eval("source {%s}" % path) == "8"
        assert tcl.eval("set x") == "4"

    def test_source_errors(self, tcl, tmp_path):
        with pytest.raises(TclError, match="couldn't read file"):
            tcl.eval("source {%s}" % (tmp_path / "missing.tcl"))
        with pytest.raises(TclError, match='should be "source fileName"'):
            tcl.eval("source")
