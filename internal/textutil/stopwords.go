package textutil

// Lang identifies one of the three languages the paper's workflow
// supports.
type Lang int

// Supported languages.
const (
	English Lang = iota
	French
	Spanish
)

// String returns the ISO-ish short name of the language.
func (l Lang) String() string {
	switch l {
	case English:
		return "en"
	case French:
		return "fr"
	case Spanish:
		return "es"
	}
	return "unknown"
}

// ParseLang maps "en", "fr", "es" (any case) to a Lang. Unknown values
// default to English.
func ParseLang(s string) Lang {
	switch Normalize(s) {
	case "fr", "french", "francais":
		return French
	case "es", "spanish", "espanol":
		return Spanish
	default:
		return English
	}
}

var stopwordsEN = []string{
	"a", "about", "above", "after", "again", "against", "all", "also", "am",
	"an", "and", "any", "are", "as", "at", "be", "because", "been", "before",
	"being", "below", "between", "both", "but", "by", "can", "cannot",
	"could", "did", "do", "does", "doing", "down", "during", "each", "few",
	"for", "from", "further", "had", "has", "have", "having", "he", "her",
	"here", "hers", "herself", "him", "himself", "his", "how", "however",
	"i", "if", "in", "into", "is", "it", "its", "itself", "may", "me",
	"might", "more", "most", "must", "my", "myself", "no", "nor", "not",
	"of", "off", "on", "once", "only", "or", "other", "ought", "our",
	"ours", "ourselves", "out", "over", "own", "same", "she", "should",
	"so", "some", "such", "than", "that", "the", "their", "theirs", "them",
	"themselves", "then", "there", "these", "they", "this", "those",
	"through", "to", "too", "under", "until", "up", "very", "was", "we",
	"were", "what", "when", "where", "which", "while", "who", "whom",
	"why", "will", "with", "would", "you", "your", "yours", "yourself",
	"yourselves", "within", "among", "via", "versus", "vs", "et", "al",
	"using", "used", "use", "based", "study", "studies", "results",
	"conclusion", "conclusions", "background", "methods", "objective",
}

var stopwordsFR = []string{
	"a", "afin", "ai", "ainsi", "alors", "au", "aucun", "aussi", "autre",
	"autres", "aux", "avec", "avoir", "car", "ce", "cela", "ces", "cet",
	"cette", "ceux", "chaque", "ci", "comme", "comment", "dans", "de",
	"des", "donc", "dont", "du", "elle", "elles", "en", "encore", "entre",
	"est", "et", "etaient", "etait", "etant", "etc", "ete", "etre", "eu",
	"fait", "il", "ils", "je", "la", "le", "les", "leur", "leurs", "lors",
	"lui", "mais", "meme", "mes", "moins", "mon", "ne", "ni", "nos",
	"notre", "nous", "on", "ont", "ou", "par", "parce", "pas", "pendant",
	"peu", "peut", "plus", "pour", "pourquoi", "quand", "que", "quel",
	"quelle", "quelles", "quels", "qui", "sa", "sans", "ses", "si", "son",
	"sont", "sous", "sur", "ta", "tandis", "tes", "ton", "tous", "tout",
	"toute", "toutes", "tres", "tu", "un", "une", "vos", "votre", "vous",
	"d", "l", "s", "n", "c", "j", "m", "t", "qu", "selon", "chez", "apres",
	"avant", "etude", "etudes", "resultats", "methode", "methodes",
}

var stopwordsES = []string{
	"a", "al", "algo", "algunas", "algunos", "ante", "antes", "como",
	"con", "contra", "cual", "cuando", "de", "del", "desde", "donde",
	"durante", "e", "el", "ella", "ellas", "ellos", "en", "entre", "era",
	"erais", "eran", "es", "esa", "esas", "ese", "eso", "esos", "esta",
	"estaba", "estado", "estamos", "estan", "estar", "este", "esto",
	"estos", "fue", "fueron", "ha", "habia", "han", "hasta", "hay", "la",
	"las", "le", "les", "lo", "los", "mas", "me", "mi", "mientras",
	"muy", "nada", "ni", "no", "nos", "nosotros", "nuestra", "nuestro",
	"o", "os", "otra", "otras", "otro", "otros", "para", "pero", "poco",
	"por", "porque", "que", "quien", "quienes", "se", "segun", "ser",
	"si", "sin", "sobre", "son", "su", "sus", "tambien", "tanto", "te",
	"tiene", "tienen", "todo", "todos", "tras", "tu", "un", "una", "unas",
	"uno", "unos", "y", "ya", "yo", "estudio", "estudios", "resultados",
	"metodo", "metodos",
}

var stopSets = func() map[Lang]map[string]bool {
	m := make(map[Lang]map[string]bool, 3)
	for lang, list := range map[Lang][]string{
		English: stopwordsEN,
		French:  stopwordsFR,
		Spanish: stopwordsES,
	} {
		set := make(map[string]bool, len(list))
		for _, w := range list {
			set[Normalize(w)] = true
		}
		m[lang] = set
	}
	return m
}()

// IsStopword reports whether w is a stopword in lang. w must already
// be canonical: a token as Normalize returns it, which is what the
// corpus index, ContentWords and the POS tagger hold. Raw input goes
// through Normalize first. FuzzCanonicalKeys pins that every such
// token is its own normal form, so no lookup needs to redo it.
func IsStopword(w string, lang Lang) bool {
	return stopSets[lang][w]
}

// Stopwords returns a copy of the stopword set for lang.
func Stopwords(lang Lang) map[string]bool {
	src := stopSets[lang]
	out := make(map[string]bool, len(src))
	for w := range src {
		out[w] = true
	}
	return out
}

// ContentWords returns the normalized non-stopword, non-numeric tokens
// of text in lang. This is the canonical "context token stream" used by
// the polysemy, sense-induction and linkage steps.
func ContentWords(text string, lang Lang) []string {
	toks := Tokenize(text)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		n := Normalize(t.Text)
		if n == "" || len(n) < 2 || IsNumeric(n) || stopSets[lang][n] {
			continue
		}
		out = append(out, n)
	}
	return out
}
