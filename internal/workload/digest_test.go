package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// streamDigest hashes the first n records of a profile's main stream and
// then of its stacked stream: each record's time, address and write flag.
func streamDigest(p Profile, n int) string {
	h := sha256.New()
	var buf [17]byte
	for _, stacked := range []bool{false, true} {
		src := p.NewSource(stacked)
		for i := 0; i < n; i++ {
			rec, ok := src.Next()
			if !ok {
				break
			}
			binary.LittleEndian.PutUint64(buf[0:], uint64(rec.Time))
			binary.LittleEndian.PutUint64(buf[8:], rec.Addr)
			buf[16] = 0
			if rec.Write {
				buf[16] = 1
			}
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedStreamDigests holds streamDigest(p, 10000) for every built-in
// profile. A change to the generator or to any draw it takes (write flags,
// repeat counts, repeat columns, gap jitter) moves them; a faster generator
// must leave every one in place.
var pinnedStreamDigests = map[string]string{
	"clustalw":       "06d0655d06d3af51",
	"fasta":          "b3fed0198b4efba0",
	"hmmer":          "46651dc428c1cbbb",
	"mummer":         "2da9a632c9c3dce2",
	"phylip":         "f3c95fdaac4be2ea",
	"tiger":          "60e7d56e3b32bef3",
	"barnes":         "7efb3ab4628aa687",
	"cholesky":       "07cc0411f0bccd1b",
	"fft":            "120b69e22ce435f6",
	"fmm":            "296caa8a053ad2e4",
	"lucontig":       "459bb4a43a95d01c",
	"lunoncontig":    "1636ad477b65aa16",
	"ocean-contig":   "c98f694c5f29d499",
	"radix":          "3a9a44d99e427245",
	"water-nsquared": "6705baec3f97666a",
	"water-spatial":  "51ee9766215d6166",
	"eon":            "3bdee9cd163e2ee6",
	"gcc":            "de5dcae2493b35f4",
	"parser":         "bb239e18c3058b11",
	"perl":           "dfdadff930bc2729",
	"twolf":          "9e08bbc3a4390bbe",
	"vpr":            "aad61aa9dffbfa2d",
	"gcc_parser":     "937847d78bf2f157",
	"gcc_perl":       "13fc74645830e00c",
	"gcc_twolf":      "d257f780ac8c0ff9",
	"parser_perl":    "0fe43a7cfbad2821",
	"parser_twolf":   "53101ecc030e63a0",
	"perl_twolf":     "7245f8e352e3c836",
	"vpr_gcc":        "b1b4be9b313628e8",
	"vpr_parser":     "8895c58d0d371ef9",
	"vpr_perl":       "916e247d329f65fd",
	"vpr_twolf":      "e96c36e11a77b1ca",
	"idle-os":        "e30f57a1cfa3abcf",
}

func TestProfileStreamsPinned(t *testing.T) {
	all := append(Profiles(), Idle())
	var got strings.Builder
	for _, p := range all {
		d := streamDigest(p, 10000)
		fmt.Fprintf(&got, "\t%q: %q,\n", p.Name, d)
		if want := pinnedStreamDigests[p.Name]; d != want {
			t.Errorf("%s: stream digest %s, pinned %s", p.Name, d, want)
		}
	}
	if len(pinnedStreamDigests) != len(all) {
		t.Errorf("%d pinned digests for %d profiles", len(pinnedStreamDigests), len(all))
	}
	if t.Failed() {
		t.Logf("digests now:\n%s", got.String())
	}
}
