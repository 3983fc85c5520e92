"""Text ingestion: sentence segmentation, table-driven lemmatisation,
stop-word filtering with pronoun retention, CoNLL-U parsing and prompt
validation.

Plain-text mode uses a rule-based segmenter and a lemma lookup table;
dependency structure only ever enters through CoNLL-U files produced by
an external parser.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import InputFormatError

ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "prof.", "sr.", "jr.", "st.",
        "vs.", "etc.", "e.g.", "i.e.", "cf.", "al.",
    }
)

_WORD_RE = re.compile(r"[A-Za-z]+")


def _wordlist(text):
    """One lowercase entry per line; blank lines ignored."""
    return frozenset(line.strip().lower() for line in text.splitlines() if line.strip())


def _bundled_wordlist(name):
    return _wordlist(resources.files("storynets.data").joinpath(name).read_text("utf-8"))


def default_stoplist():
    return _bundled_wordlist("stopwords.txt")


def default_pronouns():
    return _bundled_wordlist("pronouns.txt")


def open_text(path, newline=None):
    """The UTF-8 file `path`, read whole and checked before any line is read,
    as a text stream over its bytes in memory: its lines are those of
    `open(path, newline=newline)`. A byte that is not UTF-8, or a NUL byte
    (which no file the program writes holds), is an InputFormatError naming
    the file and the byte's offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    nul = data.find(b"\0")
    if nul >= 0:
        raise InputFormatError(f"{path}: byte {nul} is NUL")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})"
            ) from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)


def load_wordlist(path):
    return _wordlist(open_text(path).read())


def read_tsv(lines, n_columns, source, parse):
    """`parse(*cells)` for each non-blank line of `lines`, its tab-separated
    cells stripped.  A line without `n_columns` cells, or one that `parse`
    refuses with a ValueError, is an InputFormatError naming `source` and
    the line."""
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            cells = [cell.strip() for cell in line.rstrip("\n").split("\t")]
            try:
                if len(cells) != n_columns:
                    raise ValueError(
                        f"expected {n_columns} tab-separated columns, got {len(cells)}"
                    )
                yield parse(*cells)
            except ValueError as exc:
                raise InputFormatError(f"{source}: line {lineno}: {exc}") from None


def load_lemma_table(path):
    """TSV of surface<TAB>lemma rows, both lowercased on load."""
    return dict(read_tsv(open_text(path), 2, path, lambda *cells: tuple(map(str.lower, cells))))


@dataclass(frozen=True)
class Token:
    surface: str
    lemma: str
    upos: str
    sentence_index: int
    token_index: int
    head_index: int | None = None
    deprel: str | None = None
    is_stop: bool = False
    is_pronoun: bool = False

    def __post_init__(self):
        if not self.lemma or self.lemma != self.lemma.lower():
            raise ValueError(f"lemma must be non-empty lowercase, got {self.lemma!r}")
        if self.head_index is not None and self.head_index == self.token_index:
            raise ValueError(f"token {self.token_index} cannot be its own head")


def tree_neighbourhoods(sentence, sources, radius):
    """Per position in `sources`, the set of token positions within `radius`
    hops of it on the sentence's dependency tree, itself included.

    Paths run over all tokens; the trees of a forest (several roots) never
    meet.  The heads must keep `Story.check_parse`'s rule.
    """
    adj = [[] for _ in sentence]
    for tok in sentence:
        if tok.head_index is not None:
            adj[tok.token_index].append(tok.head_index)
            adj[tok.head_index].append(tok.token_index)
    for source in sources:
        near = frontier = {source}
        for _ in range(radius):
            frontier = {other for cur in frontier for other in adj[cur]} - near
            near = near | frontier
        yield near


@dataclass(frozen=True)
class PromptMatch:
    prompt_lemma: str
    matched: bool
    matched_node: str | None = None

    def __post_init__(self):
        if self.matched != (self.matched_node is not None):
            raise ValueError("matched flag and matched_node must agree")


# Story ids name files as edges/<story>__<builder>.csv.
_UNSAFE_ID_PARTS = ("/", "\\", "\0", "__")


@dataclass(frozen=True)
class Story:
    id: str
    prompt_lemmas: tuple[str, str, str]
    text: str
    sentences: tuple[tuple[Token, ...], ...]
    ratings: dict[str, int]
    mean_rating: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.id or any(part in self.id for part in _UNSAFE_ID_PARTS):
            raise ValueError(
                f"story id {self.id!r} is not a safe file name "
                "(empty, or contains '/', '\\', NUL or the '__' separator)"
            )
        if len(self.prompt_lemmas) != 3:
            raise ValueError("a story carries exactly three prompt lemmas")
        if any(not p or p != p.lower() for p in self.prompt_lemmas):
            raise ValueError(f"prompt lemmas must be non-empty lowercase: {self.prompt_lemmas}")
        for rater, value in self.ratings.items():
            if not 1 <= value <= 5:
                raise ValueError(f"rating {value!r} by {rater!r} outside [1, 5]")
        if any(len(sent) == 0 for sent in self.sentences):
            raise ValueError("empty sentences must be discarded before Story construction")
        for sent in self.sentences:
            self.check_parse(sent)
        if not self.ratings:
            raise ValueError("a story needs at least one rating")
        true_mean = sum(self.ratings.values()) / len(self.ratings)
        if self.mean_rating is None:
            object.__setattr__(self, "mean_rating", true_mean)
        elif abs(self.mean_rating - true_mean) > 1e-12:
            raise ValueError(
                f"mean_rating {self.mean_rating} does not match the ratings mean {true_mean}"
            )

    @staticmethod
    def check_parse(sentence):
        """The parse-tree rule: every HEAD lies inside the sentence and no head
        chain returns to a token it has passed, so the heads form a forest.
        A sentence that breaks it is a ValueError naming its 1-based tokens."""
        heads = [tok.head_index for tok in sentence]
        where = f"sentence {sentence[0].sentence_index + 1}"
        for pos, head in enumerate(heads):
            if head is not None and not 0 <= head < len(heads):
                raise ValueError(f"{where}: the head of token {pos + 1} lies outside it")
        rooted = set()
        for start in range(len(heads)):
            chain, cur = [], start
            while cur is not None and cur not in rooted:
                if cur in chain:
                    raise ValueError(
                        f"{where}: the head chain from token {start + 1} returns to "
                        f"token {cur + 1}"
                    )
                chain.append(cur)
                cur = heads[cur]
            rooted.update(chain)

    def all_tokens(self):
        for sent in self.sentences:
            yield from sent


def segment_sentences(text):
    """Split text on `.`, `!`, `?` terminators.

    A run of terminators (plus trailing quotes/brackets) ends a sentence
    when followed by whitespace or end of text.  A period additionally
    requires the next non-space character to be uppercase and the word in
    front of it not to be a known abbreviation, so "Dr. Smith" and "3.14"
    stay intact.
    """
    sentences = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        ch = text[i]
        if ch not in ".!?":
            i += 1
            continue
        j = i
        while j + 1 < n and text[j + 1] in ".!?\"')]”’":
            j += 1
        run = text[i : j + 1]
        boundary = False
        if j + 1 >= n:
            boundary = True
        elif text[j + 1].isspace():
            if "!" in run or "?" in run:
                boundary = True
            else:
                k = j + 1
                while k < n and text[k].isspace():
                    k += 1
                next_upper = k < n and text[k].isupper()
                word_end = i
                word_start = i
                while word_start > 0 and text[word_start - 1].isalpha():
                    word_start -= 1
                preceding = (text[word_start:word_end] + ".").lower()
                boundary = next_upper and preceding not in ABBREVIATIONS
        if boundary:
            piece = text[start : j + 1].strip()
            if piece:
                sentences.append(piece)
            start = j + 1
        i = j + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _is_content(lemma, is_stop, is_pronoun, keep_pronouns):
    """Alphabetic lemmas only; pronouns only with `keep_pronouns`; no other stop-words."""
    return lemma.isalpha() and (keep_pronouns if is_pronoun else not is_stop)


def tokenize_and_lemmatize(sentence, lemma_table, stoplist, pronouns, sentence_index=0):
    """Alphabetic tokens of one sentence, lemmatised and stop-filtered.

    Lemmas come from `lemma_table` with fallback to the lowercased
    surface.  Pronouns are kept, whether or not they are stop-words
    (`filter_content` drops them later); other stop-words are dropped.
    """
    tokens = []
    for surface in _WORD_RE.findall(sentence):
        lower = surface.lower()
        lemma = lemma_table.get(lower, lower)
        is_stop = lower in stoplist or lemma in stoplist
        is_pron = lemma in pronouns
        if _is_content(lemma, is_stop, is_pron, keep_pronouns=True):
            tokens.append(Token(
                surface, lemma, "X", sentence_index, len(tokens),
                is_stop=is_stop, is_pronoun=is_pron,
            ))
    return tokens


def filter_content(sentence, keep_pronouns):
    """Apply the alphabetic/stop-word filter to an already built token list.

    Used to derive the pronoun-free stream from stored sentences and to
    re-filter full CoNLL-U sentences for co-occurrence building.
    """
    return [t for t in sentence if _is_content(t.lemma, t.is_stop, t.is_pronoun, keep_pronouns)]


def tokenize_text(text, lemma_table, stoplist, pronouns):
    """Segment and tokenise a raw story, dropping sentences that end up empty.

    Pronouns are retained here; pronoun-free variants are derived later by
    re-filtering, which keeps a single stored token stream per story.
    """
    sentences = []
    for raw in segment_sentences(text):
        toks = tokenize_and_lemmatize(
            raw, lemma_table, stoplist, pronouns, sentence_index=len(sentences)
        )
        if toks:
            sentences.append(tuple(toks))
    return tuple(sentences)


def levenshtein(a, b):
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def match_prompts(story):
    """Check the three prompt lemmas against the story's token stream.

    A prompt counts as present when some token's lemma equals it; the
    matched node is then the prompt itself.  Otherwise the first token
    whose lemma or surface form is within Levenshtein distance 1 matches
    (tolerating inflection and minor misspelling), and the matched node is
    that token's lemma, i.e. a label that exists in the networks.
    """
    lemmas = {tok.lemma for tok in story.all_tokens()}
    matches = []
    for prompt in story.prompt_lemmas:
        near = (
            tok.lemma
            for tok in story.all_tokens()
            if levenshtein(tok.lemma, prompt) <= 1 or levenshtein(tok.surface.lower(), prompt) <= 1
        )
        hit = prompt if prompt in lemmas else next(near, None)
        matches.append(PromptMatch(prompt, hit is not None, hit))
    return matches


_CONLLU_COLUMNS = 10


def read_conllu(text, stoplist=None, pronouns=None, source="CoNLL-U"):
    """Parse CoNLL-U text into {story_id: [sentence, ...]}.

    Each sentence block must carry a `# story_id = <id>` comment.  The
    1-based HEAD column becomes a 0-based `head_index` (HEAD=0 -> None);
    multiword ranges and empty nodes are skipped.  Stop/pronoun flags are
    recomputed against the supplied (or bundled) word lists.  Errors name
    `source` and the line.
    """
    stoplist = default_stoplist() if stoplist is None else stoplist
    pronouns = default_pronouns() if pronouns is None else pronouns
    stories: dict[str, list[tuple[Token, ...]]] = {}
    rows: list[tuple[int, list[str]]] = []
    story_id = None
    # the blank line appended closes the last block
    for lineno, line in enumerate(text.splitlines() + [""], start=1):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if key.strip() == "story_id":
                story_id = value.strip()
        elif line.strip():
            cols = line.split("\t")
            if len(cols) != _CONLLU_COLUMNS:
                raise InputFormatError(
                    f"{source}: line {lineno}: expected {_CONLLU_COLUMNS} tab-separated "
                    f"columns, got {len(cols)}"
                )
            if "-" not in cols[0] and "." not in cols[0]:  # not a multiword range or empty node
                rows.append((lineno, cols))
        else:
            if rows:
                if story_id is None:
                    raise InputFormatError(
                        f"{source}: sentence block ending at line {lineno} has no "
                        "'# story_id =' comment"
                    )
                sentences = stories.setdefault(story_id, [])
                sentences.append(_build_sentence(rows, len(sentences), stoplist, pronouns, source))
                rows = []
            story_id = None
    return {sid: tuple(sents) for sid, sents in stories.items()}


def _int_cell(text, name):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not an integer") from None


def _build_sentence(rows, sentence_index, stoplist, pronouns, source):
    """One sentence from a block's (line number, columns) rows; a row that breaks
    the format or a rule of `Token` is an InputFormatError naming its line."""
    tokens, position = [], {}
    try:
        for pos, (lineno, cols) in enumerate(rows):
            position[_int_cell(cols[0], "token id")] = pos
        for pos, (lineno, cols) in enumerate(rows):
            head = _int_cell(cols[6], "HEAD")
            if head and head not in position:
                raise ValueError(f"HEAD {head} refers to a missing token id")
            surface = cols[1]
            lemma = (cols[2] if cols[2] != "_" else surface).lower()
            tokens.append(Token(
                surface, lemma, cols[3], sentence_index, pos,
                head_index=position[head] if head else None,
                deprel=cols[7] if cols[7] != "_" else None,
                is_stop=surface.lower() in stoplist or lemma in stoplist,
                is_pronoun=lemma in pronouns,
            ))
        lineno = rows[0][0]  # a head cycle is the fault of the whole block
        Story.check_parse(tokens)
    except ValueError as exc:
        raise InputFormatError(f"{source}: line {lineno}: {exc}") from None
    return tuple(tokens)


def write_conllu(stories_sentences):
    """Serialise {story_id: sentences} back to CoNLL-U text.

    Inverse of `read_conllu` for lemma/upos/head/deprel; unused columns
    are written as underscores.
    """
    out = io.StringIO()
    for story_id, sentences in stories_sentences.items():
        for sent in sentences:
            out.write(f"# story_id = {story_id}\n")
            for tok in sent:
                head = 0 if tok.head_index is None else tok.head_index + 1
                deprel = tok.deprel if tok.deprel is not None else "_"
                out.write(
                    "\t".join(
                        [
                            str(tok.token_index + 1),
                            tok.surface,
                            tok.lemma,
                            tok.upos,
                            "_",
                            "_",
                            str(head),
                            deprel,
                            "_",
                            "_",
                        ]
                    )
                    + "\n"
                )
            out.write("\n")
    return out.getvalue()


def token_to_dict(tok):
    return {
        "surface": tok.surface,
        "lemma": tok.lemma,
        "upos": tok.upos,
        "head": tok.head_index,
        "deprel": tok.deprel,
        "stop": tok.is_stop,
        "pron": tok.is_pronoun,
    }


def token_from_dict(d, sentence_index, token_index):
    return Token(
        surface=d["surface"],
        lemma=d["lemma"],
        upos=d["upos"],
        sentence_index=sentence_index,
        token_index=token_index,
        head_index=d.get("head"),
        deprel=d.get("deprel"),
        is_stop=d.get("stop", False),
        is_pronoun=d.get("pron", False),
    )


def story_to_json(story):
    payload = {
        "id": story.id,
        "prompts": list(story.prompt_lemmas),
        "text": story.text,
        "ratings": story.ratings,
        "mean_rating": story.mean_rating,
        "sentences": [[token_to_dict(t) for t in sent] for sent in story.sentences],
    }
    return json.dumps(payload, ensure_ascii=False)


def story_from_json(line):
    d = json.loads(line)
    sentences = tuple(
        tuple(token_from_dict(td, si, ti) for ti, td in enumerate(sent))
        for si, sent in enumerate(d["sentences"])
    )
    return Story(
        id=d["id"],
        prompt_lemmas=tuple(d["prompts"]),
        text=d["text"],
        sentences=sentences,
        ratings={k: int(v) for k, v in d["ratings"].items()},
        mean_rating=d["mean_rating"],
    )


def _csv_rows(lines, source):
    """The rows `csv.reader` reads from `lines`; a csv.Error is an
    InputFormatError naming `source` and the row it stopped at."""
    rowno = 0
    try:
        for rowno, row in enumerate(csv.reader(lines), start=1):
            yield row
    except csv.Error as exc:
        raise InputFormatError(f"{source}: row {rowno + 1}: {exc}") from None


def read_stories_csv(path, lemma_table, stoplist, pronouns, conllu_sentences=None):
    """Build Story objects from the corpus CSV.

    Expected columns: id, prompt1..prompt3, text, then one column per
    rater, each header non-empty and unique.  When `conllu_sentences`
    supplies a parse for a story id, the parsed sentences replace the
    plain-text tokenisation.  A row with the wrong number of cells, a
    repeated id, a rating that is not an integer, or values `Story` refuses
    is an InputFormatError naming its row, as is one the csv module refuses
    (a cell over its field size limit, say).
    """
    stories = []
    reader = _csv_rows(open_text(path, newline=""), path)
    header = next(reader, None)
    if header is None:
        return []
    if len(header) < 6:
        raise InputFormatError(
            f"{path}: need id, 3 prompt columns, text and at least one rater column"
        )
    rater_ids = [h.strip() for h in header[5:]]
    if "" in rater_ids or len(set(rater_ids)) < len(rater_ids):
        raise InputFormatError(
            f"{path}: row 1: rater headers must be non-empty and unique, got {rater_ids}"
        )
    seen_ids = set()
    for rowno, row in enumerate(reader, start=2):
        if not any(cell.strip() for cell in row):
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(row)}")
            story_id, text = row[0].strip(), row[4]
            if story_id in seen_ids:
                raise ValueError(f"duplicate story id {story_id!r}")
            seen_ids.add(story_id)
            if conllu_sentences is not None and story_id in conllu_sentences:
                sentences = conllu_sentences[story_id]
            else:
                sentences = tokenize_text(text, lemma_table, stoplist, pronouns)
            stories.append(Story(
                id=story_id,
                prompt_lemmas=tuple(p.strip().lower() for p in row[1:4]),
                text=text,
                sentences=sentences,
                ratings={
                    rater: _int_cell(cell.strip(), "rating")
                    for rater, cell in zip(rater_ids, row[5:])
                    if cell.strip()
                },
            ))
        except ValueError as exc:
            raise InputFormatError(f"{path}: row {rowno}: {exc}") from None
    return stories
