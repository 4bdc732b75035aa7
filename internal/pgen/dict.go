package pgen

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Embedded dictionaries. The paper loads dictionaries from files in
// initialize(); since this reproduction must be self-contained, we
// embed compact synthetic dictionaries whose *distribution shape*
// matches the real-world ones the running example needs: country
// populations are heavily skewed, names are conditioned on (country
// region, sex) — the paper's P(name | country, sex).

// countries lists country names with weights roughly proportional to
// real population shares, giving the skewed Pcountry(X) of the running
// example.
var countries = []string{
	"China", "India", "USA", "Indonesia", "Pakistan", "Brazil", "Nigeria",
	"Bangladesh", "Russia", "Mexico", "Japan", "Ethiopia", "Philippines",
	"Egypt", "Vietnam", "Germany", "Turkey", "Iran", "Thailand", "UK",
	"France", "Italy", "Tanzania", "SouthAfrica", "Myanmar", "Kenya",
	"SouthKorea", "Colombia", "Spain", "Uganda", "Argentina", "Algeria",
	"Sudan", "Ukraine", "Iraq", "Afghanistan", "Poland", "Canada",
	"Morocco", "SaudiArabia",
}

var countryWeights = []float64{
	1412, 1380, 331, 273, 220, 212, 206, 164, 146, 128, 126, 115, 109,
	102, 97, 83, 84, 84, 70, 67, 65, 60, 60, 59, 54, 54, 52, 51, 47, 46,
	45, 44, 44, 44, 40, 39, 38, 38, 37, 35,
}

// regionOf groups countries into name-regions so the conditional name
// dictionary stays compact while still correlating name with country.
var regionOf = map[string]string{
	"China": "east-asia", "Japan": "east-asia", "SouthKorea": "east-asia",
	"Vietnam": "east-asia", "Thailand": "east-asia", "Myanmar": "east-asia",
	"Indonesia": "east-asia", "Philippines": "east-asia",
	"India": "south-asia", "Pakistan": "south-asia", "Bangladesh": "south-asia",
	"Afghanistan": "south-asia", "Iran": "south-asia",
	"USA": "western", "UK": "western", "France": "western", "Germany": "western",
	"Italy": "western", "Spain": "western", "Canada": "western", "Poland": "western",
	"Ukraine": "western", "Russia": "western", "Argentina": "latin",
	"Brazil": "latin", "Mexico": "latin", "Colombia": "latin",
	"Nigeria": "africa", "Ethiopia": "africa", "Egypt": "africa",
	"Tanzania": "africa", "SouthAfrica": "africa", "Kenya": "africa",
	"Uganda": "africa", "Sudan": "africa", "Algeria": "africa", "Morocco": "africa",
	"Turkey": "middle-east", "Iraq": "middle-east", "SaudiArabia": "middle-east",
}

// namesByRegionSex is the conditional dictionary behind
// P(name | country, sex).
var namesByRegionSex = map[string][]string{
	"east-asia/M":   {"Wei", "Hiroshi", "Minh", "Jin", "Kenji", "Liang", "Somchai", "Budi", "Takeshi", "Feng"},
	"east-asia/F":   {"Mei", "Yuki", "Linh", "Xiu", "Sakura", "Hana", "Ratree", "Dewi", "Aiko", "Lan"},
	"south-asia/M":  {"Arjun", "Ali", "Rahul", "Imran", "Sanjay", "Farid", "Vikram", "Tariq", "Ravi", "Omar"},
	"south-asia/F":  {"Priya", "Fatima", "Anjali", "Ayesha", "Lakshmi", "Zara", "Meera", "Nadia", "Sita", "Amina"},
	"western/M":     {"James", "Pierre", "Hans", "Marco", "Carlos", "Piotr", "Ivan", "David", "Liam", "Lukas"},
	"western/F":     {"Emma", "Marie", "Greta", "Giulia", "Lucia", "Anna", "Olga", "Sophie", "Mia", "Clara"},
	"latin/M":       {"Mateo", "Santiago", "Diego", "Luis", "Pedro", "Javier", "Andres", "Rafael", "Jorge", "Pablo"},
	"latin/F":       {"Sofia", "Valentina", "Camila", "Isabella", "Luciana", "Gabriela", "Mariana", "Elena", "Carmen", "Rosa"},
	"africa/M":      {"Kwame", "Chinedu", "Tesfaye", "Juma", "Sipho", "Amadou", "Kofi", "Abubakar", "Thabo", "Moussa"},
	"africa/F":      {"Amara", "Ngozi", "Desta", "Zainab", "Thandiwe", "Fanta", "Abena", "Halima", "Naledi", "Awa"},
	"middle-east/M": {"Mehmet", "Ahmed", "Mustafa", "Hassan", "Yusuf", "Khalid", "Emre", "Saad", "Faisal", "Murat"},
	"middle-east/F": {"Leyla", "Yasmin", "Elif", "Noor", "Rania", "Zeynep", "Layla", "Huda", "Selin", "Dalia"},
}

// topics is a generic subject dictionary for Message.topic and
// Person.interest.
var topics = []string{
	"music", "sports", "politics", "movies", "travel", "food", "science",
	"technology", "art", "history", "fashion", "gaming", "health",
	"finance", "nature", "photography", "literature", "education",
	"space", "cars",
}

// lexicon is the word pool for the text generator.
var lexicon = []string{
	"the", "quick", "graph", "node", "edge", "query", "data", "social",
	"network", "message", "friend", "post", "share", "like", "comment",
	"today", "great", "new", "time", "world", "people", "think", "know",
	"good", "day", "life", "work", "love", "best", "real",
}

// sexes is the binary sex dictionary of the running example.
var sexes = []string{"M", "F"}

// Dictionary returns an embedded dictionary's values and weights
// (weights may be nil for uniform).
func Dictionary(name string) ([]string, []float64, error) {
	switch name {
	case "countries":
		return countries, countryWeights, nil
	case "topics":
		return topics, nil, nil
	case "sexes":
		return sexes, nil, nil
	case "words":
		return lexicon, nil, nil
	default:
		return nil, nil, fmt.Errorf("pgen: unknown dictionary %q", name)
	}
}

// ConditionalName implements the paper's flagship conditional PG:
// P(name | country, sex). Its Fill expects two dependency columns,
// country then sex, and samples from the (region, sex) name list by
// inverse transform with a Zipf-ish weighting (common names are more
// common).
type ConditionalName struct {
	names []string          // every name list, in sorted "region/sex" order
	group map[[2]string]int // (region, sex) -> index into first and dist
	first []uint32          // the group's first code in names
	dist  []*xrand.Discrete
}

// NewConditionalName builds the generator; the dict parameter is
// accepted for DSL symmetry but only the embedded dictionary exists.
func NewConditionalName(dict string) (*ConditionalName, error) {
	if dict != "" && dict != "names" {
		return nil, fmt.Errorf("pgen: unknown name dictionary %q", dict)
	}
	keys := slices.Sorted(maps.Keys(namesByRegionSex))
	c := &ConditionalName{group: map[[2]string]int{}}
	for g, key := range keys {
		z, err := NewZipfCategorical(namesByRegionSex[key], 0.8)
		if err != nil {
			return nil, err
		}
		region, sex, _ := strings.Cut(key, "/")
		c.group[[2]string{region, sex}] = g
		c.first = append(c.first, uint32(len(c.names)))
		c.names = append(c.names, z.values...)
		c.dist = append(c.dist, z.dist)
	}
	return c, nil
}

func (c *ConditionalName) Name() string          { return "dictionary" }
func (c *ConditionalName) Kind() table.ValueKind { return table.KindString }

// Arity implements Generator: (country, sex).
func (c *ConditionalName) Arity() int { return 2 }

// Vocabulary implements Coded.
func (c *ConditionalName) Vocabulary([]*table.PropertyTable) []string { return c.names }

// groupOf resolves a (country, sex) pair to its name list; unknown
// countries read as western, unknown sexes as M.
func (c *ConditionalName) groupOf(country, sex string) int {
	region, ok := regionOf[country]
	if !ok {
		region = "western"
	}
	if sex != "F" {
		sex = "M"
	}
	return c.group[[2]string{region, sex}]
}

func (c *ConditionalName) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, deps []table.Chunk) error {
	country, sex := &deps[0], &deps[1]
	// Coded dependencies resolve their group once per value pair.
	var byCode []int
	if country.Dict != nil && sex.Dict != nil {
		for _, cv := range country.Dict {
			for _, sv := range sex.Dict {
				byCode = append(byCode, c.groupOf(cv, sv))
			}
		}
	}
	for i := range dst.Codes {
		var g int
		if byCode != nil {
			g = byCode[int(country.Codes[i])*len(sex.Dict)+int(sex.Codes[i])]
		} else {
			g = c.groupOf(country.Str(i), sex.Str(i))
		}
		dst.Codes[i] = c.first[g] + uint32(c.dist[g].Sample(s, lo+int64(i)))
	}
	return nil
}

// NamesFor exposes the name list of a (country, sex) pair for tests.
func NamesFor(country, sex string) []string {
	region, ok := regionOf[country]
	if !ok {
		region = "western"
	}
	return namesByRegionSex[region+"/"+sex]
}
