package splitmix

import "testing"

// TestMix64Golden pins exact outputs. The first three golden inputs are
// the splitmix64 stream seeded with 0, whose published outputs begin
// 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f.
func TestMix64Golden(t *testing.T) {
	for _, tc := range []struct{ in, want uint64 }{
		{0x9e3779b97f4a7c15, 0xe220a8397b1dcdaf},
		{0x3c6ef372fe94f82a, 0x6e789e6aa1b965f4},
		{0xdaa66d2c7ddf743f, 0x06c45d188009454f},
		{0, 0},
		{1, 0x5692161d100b05e5},
		{0xdeadbeefcafef00d, 0x19104ae2406d51c3},
		{0xffffffffffffffff, 0xb4d055fcf2cbbd7b},
	} {
		if got := Mix64(tc.in); got != tc.want {
			t.Errorf("Mix64(%#016x) = %#016x, want %#016x", tc.in, got, tc.want)
		}
	}
}
