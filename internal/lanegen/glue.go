package main

import (
	"bytes"
	"fmt"
	"go/format"
	"strings"
)

// glue writes the Go side of a package's kernels: lanes.go (the
// wrappers, which read internal/simd's Width switch), lanes_amd64.go
// (the assembly's declarations) and lanes_other.go (what every other
// architecture compiles).
func glue(pkg, from string, kernels []*kernel) map[string][]byte {
	header := fmt.Sprintf("// Code generated by lanegen from %s; DO NOT EDIT.\n\n", from)

	var common bytes.Buffer
	common.WriteString(header)
	fmt.Fprintf(&common, "package %s\n\n", pkg)
	imports := "\"npbgo/internal/simd\""
	for _, k := range kernels {
		if strings.Contains(k.loop, "math.Sqrt") {
			imports = "(\n\"math\"\n\n" + imports + "\n)"
			break
		}
	}
	fmt.Fprintf(&common, "import %s\n", imports)
	for _, k := range kernels {
		switch k.form {
		case rowsForm:
			rowWrapper(&common, pkg, k)
		case chunkForm:
			chunkWrapper(&common, k)
		default:
			laneWrapper(&common, k)
		}
	}

	var amd64 bytes.Buffer
	amd64.WriteString(header)
	fmt.Fprintf(&amd64, "package %s\n\n", pkg)
	amd64.WriteString("// The kernels of lanes_amd64.s.\n")
	for _, k := range kernels {
		for _, w := range levels {
			fmt.Fprintf(&amd64, "\n//go:noescape\nfunc %s%s(%s)\n", k.name, w.suffix, asmParams(k, w))
		}
	}

	var other bytes.Buffer
	other.WriteString(header)
	fmt.Fprintf(&other, "//go:build !amd64\n\npackage %s\n\n", pkg)
	other.WriteString("// Without amd64 there are no kernels in assembly: simd.Width is 1 and\n")
	other.WriteString("// every wrapper runs the scalar body. These stubs only keep lanes.go\n// compiling.\n\n")
	fmt.Fprintf(&other, "const noAVX = %q\n", pkg+": AVX kernels exist only on amd64")
	for _, k := range kernels {
		for _, w := range levels {
			fmt.Fprintf(&other, "\nfunc %s%s(%s) { panic(noAVX) }\n", k.name, w.suffix, asmParams(k, w))
		}
	}

	out := map[string][]byte{}
	for name, b := range map[string]*bytes.Buffer{"lanes.go": &common, "lanes_amd64.go": &amd64, "lanes_other.go": &other} {
		src, err := format.Source(b.Bytes())
		if err != nil {
			panic(fmt.Sprintf("lanegen: %s does not parse: %v", name, err)) // a bug in this file
		}
		out[name] = src
	}
	return out
}

// rowWrapper writes <name>Row: the groups of points through the
// assembly, widest first, then the scalar body on the rest.
func rowWrapper(b *bytes.Buffer, pkg string, k *kernel) {
	arrays, args := params(k)
	first := arrays[0]
	fmt.Fprintf(b, "\n// %sRow runs %s at each point i < len(%s) of its rows, eight or four\n", k.name, k.name, first)
	b.WriteString("// points per instruction where the CPU allows and the scalar body on the\n// rest.\n")
	fmt.Fprintf(b, "func %sRow(%s) {\n", k.name, signature(k, func(*param) string { return "[]float64" }))
	fmt.Fprintf(b, "count := len(%s)\n", first)
	if len(arrays) > 1 {
		var short []string
		for _, a := range arrays[1:] {
			short = append(short, fmt.Sprintf("len(%s) < count", a))
		}
		fmt.Fprintf(b, "if %s {\npanic(\"%s: %sRow: a row is shorter than %s\")\n}\n",
			strings.Join(short, " || "), pkg, k.name, first)
		var cut []string
		for _, a := range arrays[1:] {
			cut = append(cut, a+"[:count]")
		}
		fmt.Fprintf(b, "%s = %s\n", strings.Join(arrays[1:], ", "), strings.Join(cut, ", "))
	}
	// Each level runs the groups the wider ones left (at width 8, at
	// most one group of four), and the scalar body the points after
	// done. Its index runs unsigned, so the compiler needs no check of
	// its lower bound.
	b.WriteString("done := 0\n")
	for l := len(levels) - 1; l >= 0; l-- {
		w := levels[l]
		at, left := "done", "count-done"
		if l == len(levels)-1 {
			at, left = "0", "count"
		}
		var ptrs []string
		for i, a := range args {
			if k.params[i].array > 0 {
				ptrs = append(ptrs, "&"+a+"["+at+"]")
			} else {
				ptrs = append(ptrs, a)
			}
		}
		fmt.Fprintf(b, "if simd.Width >= %d && %s >= %d {\n", w.lanes, left, w.lanes)
		groups := fmt.Sprintf("(%s)/%d", left, w.lanes)
		if at == "0" {
			groups = fmt.Sprintf("%s/%d", left, w.lanes)
		}
		fmt.Fprintf(b, "%s%s(%s, %s)\ndone = count &^ %d\n}\n", k.name, w.suffix, strings.Join(ptrs, ", "), groups, w.lanes-1)
	}
	fmt.Fprintf(b, "for i := uint(done); i < uint(count); i++ {\n%s}\n}\n", k.loop)
}

// chunkWrapper writes <name>Chunk: both assembly levels over the
// columns up to the longest lane, the AVX one on each half of the
// lanes, else the scalar body lane by lane, each sum in a local. Each
// stream is sliced to the chunk's columns first, so no kernel reads
// past one; a table's indices are the caller's to keep in range.
func chunkWrapper(b *bytes.Buffer, k *kernel) {
	var decl []string
	for _, p := range k.params {
		t := "float64"
		switch {
		case p.written:
			t = fmt.Sprintf("*[%d]float64", lanes)
		case p.int32:
			t = "[]int32"
		case p.pointer():
			t = "[]float64"
		}
		decl = append(decl, p.name+" "+t)
	}
	var streams, cut []string
	for _, p := range k.params {
		if p.array > 0 && !p.written {
			streams = append(streams, p.name)
			cut = append(cut, fmt.Sprintf("%s[:%d*width]", p.name, lanes))
		}
	}
	fmt.Fprintf(b, "\n// %sChunk runs %s over the columns of a chunk of %d lanes: lane q at\n", k.name, k.name, lanes)
	fmt.Fprintf(b, "// each column c < lens[q], element c of a stream at [%d*c+q], its sums at\n", lanes)
	b.WriteString("// [q]. Every index a stream holds up to the longest lane must be within\n// its table: nothing checks it.\n")
	fmt.Fprintf(b, "func %sChunk(lens *[%d]int32, %s) {\n", k.name, lanes, strings.Join(decl, ", "))
	b.WriteString("width := 0\nfor _, n := range lens {\nwidth = max(width, int(n))\n}\n")
	b.WriteString("if width == 0 {\nreturn\n}\n")
	if len(streams) > 0 {
		fmt.Fprintf(b, "%s = %s\n", strings.Join(streams, ", "), strings.Join(cut, ", "))
	}
	b.WriteString("switch {\n")
	for l := len(levels) - 1; l >= 0; l-- {
		w := levels[l]
		fmt.Fprintf(b, "case simd.Width >= %d:\n", w.lanes)
		for lo := 0; lo < lanes; lo += w.lanes {
			args := []string{fmt.Sprintf("&lens[%d]", lo)}
			for _, p := range k.params {
				switch {
				case p.table:
					args = append(args, "&"+p.name+"[0]")
				case p.pointer():
					args = append(args, fmt.Sprintf("&%s[%d]", p.name, lo))
				default:
					args = append(args, p.name)
				}
			}
			fmt.Fprintf(b, "%s%s(%s, width)\n", k.name, w.suffix, strings.Join(args, ", "))
		}
	}
	var load, store []string
	for _, p := range k.params {
		if p.written {
			load = append(load, fmt.Sprintf("%s := [1]float64{%s[q]}\n", sumLocal(p), p.name))
			store = append(store, fmt.Sprintf("%s[q] = %s[0]\n", p.name, sumLocal(p)))
		}
	}
	fmt.Fprintf(b, "default:\nfor q := range lens {\n%sfor k := q; k < %d*int(lens[q]); k += %d {\n%s}\n%s}\n}\n}\n",
		strings.Join(load, ""), lanes, lanes, k.loop, strings.Join(store, ""))
}

// laneWrapper writes <name>8: the narrowest assembly that covers the
// lanes to run, else the scalar body on each of them, inlined with every
// p[e] read as p[e][q].
func laneWrapper(b *bytes.Buffer, k *kernel) {
	_, args := params(k)
	fmt.Fprintf(b, "\n// %s%d runs %s on lanes 0 to live-1, element e of lane q at [e][q];\n", k.name, lanes, k.name)
	b.WriteString("// the assembly may run the lanes after them too.\n")
	fmt.Fprintf(b, "func %s%d(live int, %s) {\n", k.name, lanes, signature(k, laneType))
	b.WriteString("switch {\n")
	for l := len(levels) - 1; l >= 0; l-- {
		w := levels[l]
		fmt.Fprintf(b, "case simd.Width >= %d", w.lanes)
		if l > 0 {
			fmt.Fprintf(b, " && live > %d", levels[l-1].lanes)
		}
		b.WriteString(":\n")
		if w.lanes == lanes {
			fmt.Fprintf(b, "%s%s(%s)\n", k.name, w.suffix, strings.Join(args, ", "))
			continue
		}
		for lo := 0; lo < lanes; lo += w.lanes {
			var ptrs []string
			for _, p := range k.params {
				if p.array > 0 {
					ptrs = append(ptrs, fmt.Sprintf("&%s[0][%d]", p.name, lo))
				} else {
					ptrs = append(ptrs, p.name)
				}
			}
			call := fmt.Sprintf("%s%s(%s)\n", k.name, w.suffix, strings.Join(ptrs, ", "))
			if lo > 0 {
				call = fmt.Sprintf("if live > %d {\n%s}\n", lo, call)
			}
			b.WriteString(call)
		}
	}
	fmt.Fprintf(b, "default:\nfor q := 0; q < %d && q < live; q++ {\n%s}\n}\n}\n", lanes, k.loop)
}

func laneType(p *param) string { return fmt.Sprintf("*[%d][%d]float64", p.array, lanes) }

// asmParams is the parameter list of k's assembly at level w: its
// arrays as w.arrayType says, a row kernel's followed by the group
// count, a chunk kernel's after the lane lengths and followed by the
// chunk's width in columns.
func asmParams(k *kernel, w width) string {
	decl := signature(k, func(p *param) string { return w.arrayType(k.form, p) })
	switch k.form {
	case rowsForm:
		decl += ", groups int"
	case chunkForm:
		decl = "lens *int32, " + decl + ", width int"
	}
	return decl
}

// params returns a kernel's array parameter names and all its
// parameter names, in order.
func params(k *kernel) (arrays, all []string) {
	for _, p := range k.params {
		if p.pointer() {
			arrays = append(arrays, p.name)
		}
		all = append(all, p.name)
	}
	return arrays, all
}

// signature writes k's parameter list with each array's type given by
// arrayType, grouping consecutive parameters of one type.
func signature(k *kernel, arrayType func(*param) string) string {
	var groups []string
	var names []string
	prev := ""
	flush := func() {
		if len(names) > 0 {
			groups = append(groups, strings.Join(names, ", ")+" "+prev)
		}
		names = nil
	}
	for _, p := range k.params {
		t := "float64"
		if p.pointer() {
			t = arrayType(p)
		}
		if t != prev {
			flush()
			prev = t
		}
		names = append(names, p.name)
	}
	flush()
	return strings.Join(groups, ", ")
}
