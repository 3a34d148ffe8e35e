package main

import (
	"bytes"
	"fmt"
	"go/format"
	"strings"
)

// rowGlue writes the Go side of a package's row kernels: rows.go (the
// slice wrappers), rows_amd64.go (the assembly's declarations and the
// CPU probe) and rows_other.go (what every other architecture runs).
func rowGlue(pkg, from string, rows []*kernel) map[string][]byte {
	header := fmt.Sprintf("// Code generated by lanegen from %s; DO NOT EDIT.\n\n", from)

	var common bytes.Buffer
	common.WriteString(header)
	fmt.Fprintf(&common, "package %s\n\n", pkg)
	for _, k := range rows {
		if strings.Contains(k.loop, "math.Sqrt") {
			common.WriteString("import \"math\"\n\n")
			break
		}
	}
	common.WriteString(`// useAVX selects the assembly row kernels. It is set once, at package
// initialization, from what the CPU and the OS support; tests clear it
// to run the portable path.
var useAVX = avxSupported()
`)
	for _, k := range rows {
		arrays, args := rowParams(k)
		first := arrays[0]
		fmt.Fprintf(&common, "\n// %sRow runs %s at each point i < len(%s) of its rows, four points\n", k.name, k.name, first)
		common.WriteString("// per instruction where the CPU allows and the scalar body on the rest.\n")
		fmt.Fprintf(&common, "func %sRow(%s) {\n", k.name, signature(k, "[]float64"))
		fmt.Fprintf(&common, "count := len(%s)\n", first)
		if len(arrays) > 1 {
			var short []string
			for _, a := range arrays[1:] {
				short = append(short, fmt.Sprintf("len(%s) < count", a))
			}
			fmt.Fprintf(&common, "if %s {\npanic(\"%s: %sRow: a row is shorter than %s\")\n}\n",
				strings.Join(short, " || "), pkg, k.name, first)
			var cut []string
			for _, a := range arrays[1:] {
				cut = append(cut, a+"[:count]")
			}
			fmt.Fprintf(&common, "%s = %s\n", strings.Join(arrays[1:], ", "), strings.Join(cut, ", "))
		}
		common.WriteString("groups := 0\nif useAVX {\ngroups = count / 4\nif groups > 0 {\n")
		var ptrs []string
		for _, a := range args {
			if isArray(k, a) {
				ptrs = append(ptrs, "&"+a+"[0]")
			} else {
				ptrs = append(ptrs, a)
			}
		}
		fmt.Fprintf(&common, "%sAVX(%s, groups)\n}\n}\n", k.name, strings.Join(ptrs, ", "))
		fmt.Fprintf(&common, "for i := 4 * groups; i < count; i++ {\n%s}\n}\n", k.loop)
	}

	var amd64 bytes.Buffer
	amd64.WriteString(header)
	fmt.Fprintf(&amd64, "package %s\n\n", pkg)
	amd64.WriteString("// The row kernels of lanes_amd64.s.\n")
	for _, k := range rows {
		fmt.Fprintf(&amd64, "\n//go:noescape\nfunc %sAVX(%s, groups int)\n", k.name, signature(k, "*float64"))
	}
	amd64.WriteString(`
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// avxSupported reports whether the CPU has AVX and the OS saves the
// YMM registers across context switches (CPUID.1:ECX.OSXSAVE and AVX,
// then XCR0 bits 1 and 2).
func avxSupported() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}
`)

	var other bytes.Buffer
	other.WriteString(header)
	fmt.Fprintf(&other, "//go:build !amd64\n\npackage %s\n\n", pkg)
	other.WriteString("// Without amd64 there are no row kernels in assembly: useAVX is false\n")
	other.WriteString("// and every row runs the scalar body. These stubs only keep rows.go compiling.\n\n")
	other.WriteString("func avxSupported() bool { return false }\n\n")
	fmt.Fprintf(&other, "const noAVX = %q\n", pkg+": AVX row kernels exist only on amd64")
	for _, k := range rows {
		fmt.Fprintf(&other, "\nfunc %sAVX(%s, groups int) { panic(noAVX) }\n", k.name, signature(k, "*float64"))
	}

	out := map[string][]byte{}
	for name, b := range map[string]*bytes.Buffer{"rows.go": &common, "rows_amd64.go": &amd64, "rows_other.go": &other} {
		src, err := format.Source(b.Bytes())
		if err != nil {
			panic(fmt.Sprintf("lanegen: %s does not parse: %v", name, err)) // a bug in this file
		}
		out[name] = src
	}
	return out
}

// rowParams returns a row kernel's array parameter names and all its
// parameter names, in order.
func rowParams(k *kernel) (arrays, all []string) {
	for _, p := range k.params {
		if p.array > 0 {
			arrays = append(arrays, p.name)
		}
		all = append(all, p.name)
	}
	return arrays, all
}

func isArray(k *kernel, name string) bool {
	for _, p := range k.params {
		if p.name == name {
			return p.array > 0
		}
	}
	return false
}

// signature writes k's parameter list with arrays as arrayType,
// grouping consecutive parameters of one type.
func signature(k *kernel, arrayType string) string {
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
			t = arrayType
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
