package hdl

import "testing"

func TestPackTwoStateRoundtrip(t *testing.T) {
	cases := []struct {
		s    string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"1", 1, true},
		{"1010", 0xA, true},
		{"11111111", 0xFF, true},
		{"10X0", 0, false},
		{"Z", 0, false},
		{"W011", 0, false},
		{"U", 0, false},
	}
	for _, c := range cases {
		v := MustParseLV(c.s)
		w, ok := v.PackTwoState()
		if ok != c.ok || (ok && w != c.want) {
			t.Errorf("PackTwoState(%s) = (%#x, %v), want (%#x, %v)", c.s, w, ok, c.want, c.ok)
		}
		if ok {
			back := make(LV, len(v))
			unpackInto(back, w)
			if !back.Equal(v) {
				t.Errorf("unpack(pack(%s)) = %s", c.s, back)
			}
		}
	}
}
