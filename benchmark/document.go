package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
)

// documentVersion names the layout of a results document; -diff refuses a
// document of another version.
const documentVersion = 1

// document is a set of runs of one commit on one host: what -out writes and
// -diff compares.
type document struct {
	Version int      `json:"version"`
	Host    hostMeta `json:"host"`
	Sizing  sizing   `json:"sizing"`
	Runs    []result `json:"runs"`
}

type hostMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
}

func thisHost() hostMeta {
	h := hostMeta{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func readDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Version != documentVersion {
		return doc, fmt.Errorf("%s: document version %d, this benchmark reads %d", path, doc.Version, documentVersion)
	}
	return doc, nil
}

// appendRun adds one run to the document at path, starting it if absent.
func appendRun(path string, res result) error {
	doc, err := readDocument(path)
	if errors.Is(err, fs.ErrNotExist) {
		doc = document{Version: documentVersion, Host: thisHost(), Sizing: fullSize}
	} else if err != nil {
		return err
	}
	doc.Runs = append(doc.Runs, res)
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
