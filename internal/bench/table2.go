package bench

import (
	"fmt"
	"io"

	"decafdrivers/internal/drivermodel"
	"decafdrivers/internal/slicer"
)

// Table2Row is one driver's slicing outcome.
type Table2Row struct {
	Stats        slicer.Stats
	UserFraction float64
	JavaFraction float64
}

// RunTable2 slices all five driver models and returns the rows in the
// paper's order.
func RunTable2() ([]Table2Row, error) {
	order := []string{"8139too", "e1000", "ens1371", "uhci-hcd", "psmouse"}
	models := drivermodel.Drivers()
	rows := make([]Table2Row, 0, len(order))
	for _, name := range order {
		d := models[name]
		p, err := slicer.Slice(d)
		if err != nil {
			return nil, fmt.Errorf("table2: %s: %w", name, err)
		}
		s := p.ComputeStats(drivermodel.DecafLoCRatio(name))
		rows = append(rows, Table2Row{
			Stats:        s,
			UserFraction: s.UserFraction(),
			JavaFraction: s.JavaFraction(),
		})
	}
	return rows, nil
}

// PrintTable2 renders Table 2 ("The drivers converted to the Decaf
// architecture, and the size of the resulting driver components").
func PrintTable2(w io.Writer) error {
	rows, err := RunTable2()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 2: drivers converted to the Decaf architecture")
	fmt.Fprintln(w, "(every cell computed by slicing the driver IR; paper values identical)")
	fmt.Fprintln(w)
	header := []string{"Driver", "Type", "LoC", "Annot.",
		"Nuc.Funcs", "Nuc.LoC", "Lib.Funcs", "Lib.LoC",
		"Decaf.Funcs", "Decaf.LoC", "Orig.LoC"}
	var out [][]string
	for _, r := range rows {
		s := r.Stats
		out = append(out, []string{
			s.Name, s.Type,
			fmt.Sprintf("%d", s.TotalLoC), fmt.Sprintf("%d", s.Annotations),
			fmt.Sprintf("%d", s.Nucleus.Funcs), fmt.Sprintf("%d", s.Nucleus.LoC),
			fmt.Sprintf("%d", s.Library.Funcs), fmt.Sprintf("%d", s.Library.LoC),
			fmt.Sprintf("%d", s.Decaf.Funcs), fmt.Sprintf("%d", s.Decaf.LoC),
			fmt.Sprintf("%d", s.DecafOrigLoC),
		})
	}
	table(w, header, out)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Common kernel headers: %d additional shared annotations (§4.1).\n",
		drivermodel.HeaderAnnotations)
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %4.0f%% of functions out of the kernel, %4.1f%% in the managed language\n",
			r.Stats.Name+":", r.UserFraction*100, r.JavaFraction*100)
	}
	return nil
}
