// Package a exercises the errsentinel analyzer.
package a

import (
	"errors"
	"strings"
)

// AppError mirrors rpc.AppError: a wire-crossing error whose Msg is
// rendered text.
type AppError struct {
	Msg  string
	Code uint64
}

func (e *AppError) Error() string { return e.Msg }

var ErrDiverged = errors.New("a: replica histories diverged")

func containsOnError(err error) bool {
	return strings.Contains(err.Error(), "diverged") // want `strings\.Contains on err\.Error\(\) text`
}

func containsSentinelText(err error) bool {
	return strings.Contains(err.Error(), ErrDiverged.Error()) // want `strings\.Contains on err\.Error\(\) text`
}

func matchOnAppErrMsg(app *AppError) bool {
	return strings.Contains(app.Msg, ErrDiverged.Error()) // want `strings\.Contains on AppError\.Msg text`
}

func prefixOnMsg(app AppError) bool {
	return strings.HasPrefix(app.Msg, "kv:") // want `strings\.HasPrefix on AppError\.Msg text`
}

func equalityOnError(err error) bool {
	return err.Error() == "a: replica histories diverged" // want `error compared by err\.Error\(\) text`
}

func inequalityOnError(err error) bool {
	return err.Error() != ErrDiverged.Error() // want `error compared by err\.Error\(\) text`
}

// typedMatch is the sanctioned pattern: no findings.
func typedMatch(err error) bool {
	if errors.Is(err, ErrDiverged) {
		return true
	}
	var app *AppError
	return errors.As(err, &app) && app.Code == 7
}

// emptyMsgCheck is a presence check, not classification: clean.
func emptyMsgCheck(app *AppError) bool { return app.Msg == "" }

// nonErrorStrings keeps ordinary string work clean.
func nonErrorStrings(s string) bool {
	return strings.Contains(s, "x") || s == "y"
}

//yesqlint:allow errsentinel -- sanctioned parser: extracts a structured payload from the message
func sanctionedParser(app *AppError) bool {
	return strings.Contains(app.Msg, ErrDiverged.Error())
}
