// Package cmf implements a small data-parallel Fortran dialect standing
// in for CM Fortran, the high-level language of the paper's case study
// (Section 6). It provides a lexer, parser, semantic checker, a lowering
// pass that assigns parallel statements to compiler-generated node code
// blocks (with optional fusion, which produces the one-to-many mappings
// of Figure 2), a compiler-listing emitter whose output cmd/pifgen parses
// into PIF files, and an executor that runs compiled programs on the
// simulated CM Run-Time System (package cmrts). The executor computes a
// node's section at a time: each elementwise statement is lowered once
// to a short program of strip-wide vector instructions (vector.go), never
// interpreted per element.
//
// The dialect covers what the paper's discussion needs: parallel array
// declarations, parallel assignment statements with elementwise
// arithmetic, the reduction intrinsics SUM/MAXVAL/MINVAL, the
// transformation intrinsics CSHIFT/EOSHIFT/TRANSPOSE, SCAN and SORT,
// FORALL over one-dimensional arrays, serial DO loops, and PRINT.
package cmf

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokNewline
	TokIdent
	TokNumber
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokLParen
	TokRParen
	TokComma
	TokAssign
	TokColon
	TokGT // >
	TokLT // <
	TokGE // >=
	TokLE // <=
	TokEQ // ==
	TokNE // /= (Fortran inequality)
	// Keywords.
	TokProgram
	TokEnd
	TokReal
	TokInteger
	TokForall
	TokDo
	TokPrint
	TokWhere
)

// String names the kind for diagnostics.
func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "end of file"
	case TokNewline:
		return "end of line"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokPlus:
		return "'+'"
	case TokMinus:
		return "'-'"
	case TokStar:
		return "'*'"
	case TokSlash:
		return "'/'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokComma:
		return "','"
	case TokAssign:
		return "'='"
	case TokColon:
		return "':'"
	case TokGT:
		return "'>'"
	case TokLT:
		return "'<'"
	case TokGE:
		return "'>='"
	case TokLE:
		return "'<='"
	case TokEQ:
		return "'=='"
	case TokNE:
		return "'/='"
	case TokProgram:
		return "PROGRAM"
	case TokEnd:
		return "END"
	case TokReal:
		return "REAL"
	case TokInteger:
		return "INTEGER"
	case TokForall:
		return "FORALL"
	case TokDo:
		return "DO"
	case TokPrint:
		return "PRINT"
	case TokWhere:
		return "WHERE"
	default:
		return fmt.Sprintf("TokKind(%d)", int(k))
	}
}

// Token is one lexical token with its source line.
type Token struct {
	Kind TokKind
	Text string // identifier name (upper-cased) or number literal text
	Num  float64
	Line int
}

var keywords = map[string]TokKind{
	"PROGRAM": TokProgram,
	"END":     TokEnd,
	"REAL":    TokReal,
	"INTEGER": TokInteger,
	"FORALL":  TokForall,
	"DO":      TokDo,
	"PRINT":   TokPrint,
	"WHERE":   TokWhere,
}
