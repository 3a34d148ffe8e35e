package main

import (
	"bytes"
	"fmt"
	"go/format"
	"strings"
)

// glue writes the Go side of a package's kernels: lanes.go (the
// wrappers, which read internal/simd's AVX switch), lanes_amd64.go (the
// assembly's declarations) and lanes_other.go (what every other
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
	lanes := false
	for _, k := range kernels {
		if k.rows {
			rowWrapper(&common, pkg, k)
		} else {
			laneWrapper(&common, k)
			lanes = true
		}
	}
	if lanes {
		common.WriteString(`
// gatherLane copies lane q of src into dst.
func gatherLane(dst []float64, src [][4]float64, q int) {
	for e := range dst {
		dst[e] = src[e][q]
	}
}

// scatterLane copies src into lane q of dst.
func scatterLane(dst [][4]float64, src []float64, q int) {
	for e := range src {
		dst[e][q] = src[e]
	}
}
`)
	}

	var amd64 bytes.Buffer
	amd64.WriteString(header)
	fmt.Fprintf(&amd64, "package %s\n\n", pkg)
	amd64.WriteString("// The kernels of lanes_amd64.s.\n")
	for _, k := range kernels {
		fmt.Fprintf(&amd64, "\n//go:noescape\nfunc %sAVX(%s)\n", k.name, asmParams(k))
	}

	var other bytes.Buffer
	other.WriteString(header)
	fmt.Fprintf(&other, "//go:build !amd64\n\npackage %s\n\n", pkg)
	other.WriteString("// Without amd64 there are no kernels in assembly: simd.AVX is false and\n")
	other.WriteString("// every wrapper runs the scalar body. These stubs only keep lanes.go\n// compiling.\n\n")
	fmt.Fprintf(&other, "const noAVX = %q\n", pkg+": AVX kernels exist only on amd64")
	for _, k := range kernels {
		fmt.Fprintf(&other, "\nfunc %sAVX(%s) { panic(noAVX) }\n", k.name, asmParams(k))
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

// rowWrapper writes <name>Row: the groups of four points through the
// assembly, then the scalar body on the rest.
func rowWrapper(b *bytes.Buffer, pkg string, k *kernel) {
	arrays, args := params(k)
	first := arrays[0]
	fmt.Fprintf(b, "\n// %sRow runs %s at each point i < len(%s) of its rows, four points\n", k.name, k.name, first)
	b.WriteString("// per instruction where the CPU allows and the scalar body on the rest.\n")
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
	b.WriteString("groups := 0\nif simd.AVX {\ngroups = count / 4\nif groups > 0 {\n")
	var ptrs []string
	for i, a := range args {
		if k.params[i].array > 0 {
			ptrs = append(ptrs, "&"+a+"[0]")
		} else {
			ptrs = append(ptrs, a)
		}
	}
	fmt.Fprintf(b, "%sAVX(%s, groups)\n}\n}\n", k.name, strings.Join(ptrs, ", "))
	fmt.Fprintf(b, "for i := 4 * groups; i < count; i++ {\n%s}\n}\n", k.loop)
}

// laneWrapper writes <name>4: the assembly where the CPU allows, else
// each lane gathered, run through the scalar body and the arrays it
// writes scattered back.
func laneWrapper(b *bytes.Buffer, k *kernel) {
	_, args := params(k)
	fmt.Fprintf(b, "\n// %s4 runs %s on four lanes, element e of lane q at [e][q].\n", k.name, k.name)
	fmt.Fprintf(b, "func %s4(%s) {\n", k.name, signature(k, laneType))
	fmt.Fprintf(b, "if simd.AVX {\n%sAVX(%s)\nreturn\n}\n", k.name, strings.Join(args, ", "))
	b.WriteString("for q := 0; q < 4; q++ {\n")
	var call, gather, scatter []string
	for i, p := range k.params {
		if p.array == 0 {
			call = append(call, p.name)
			continue
		}
		l := fmt.Sprintf("lane%d", i)
		fmt.Fprintf(b, "var %s [%d]float64\n", l, p.array)
		call = append(call, "&"+l)
		gather = append(gather, fmt.Sprintf("gatherLane(%s[:], %s[:], q)\n", l, p.name))
		if p.written {
			scatter = append(scatter, fmt.Sprintf("scatterLane(%s[:], %s[:], q)\n", p.name, l))
		}
	}
	b.WriteString(strings.Join(gather, ""))
	fmt.Fprintf(b, "%s(%s)\n", k.name, strings.Join(call, ", "))
	b.WriteString(strings.Join(scatter, ""))
	b.WriteString("}\n}\n")
}

func laneType(p *param) string { return fmt.Sprintf("*[%d][4]float64", p.array) }

// asmParams is the parameter list of k's assembly: a row kernel's
// arrays as the *float64 of their first group, followed by the group
// count, a lane kernel's as *[N][4]float64.
func asmParams(k *kernel) string {
	if k.rows {
		return signature(k, func(*param) string { return "*float64" }) + ", groups int"
	}
	return signature(k, laneType)
}

// params returns a kernel's array parameter names and all its
// parameter names, in order.
func params(k *kernel) (arrays, all []string) {
	for _, p := range k.params {
		if p.array > 0 {
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
		if p.array > 0 {
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
