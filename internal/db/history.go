package db

import "encoding/json"

// historyPageRows is one history page's rows: 1 024 of 88 bytes fill
// eleven 8 KiB runtime pages exactly.
const historyPageRows = 1024

// history is the contract history in settlement order, n rows in pages
// that never move: an append writes one row and copies none already
// kept, as regrowing one slice would under the write lock. Nil pages are
// a history no snapshot carried (null), empty ones an empty history ([]).
type history struct {
	pages []*[historyPageRows]ContractRecord
	n     int
}

func (h *history) at(i int) *ContractRecord { return &h.pages[i/historyPageRows][i%historyPageRows] }

func (h *history) append(r ContractRecord) {
	if h.n == len(h.pages)*historyPageRows {
		h.pages = append(h.pages, new([historyPageRows]ContractRecord))
	}
	*h.at(h.n) = r
	h.n++
}

// reset empties the history, dropping the rows' strings but keeping the
// pages for the next rows.
func (h *history) reset() {
	for i := 0; i < h.n; i += historyPageRows {
		clear(h.pages[i/historyPageRows][:min(historyPageRows, h.n-i)])
	}
	h.n = 0
}

// MarshalJSON writes, a page at a time, the bytes one slice would.
func (h history) MarshalJSON() ([]byte, error) {
	if h.pages == nil {
		return []byte("null"), nil
	}
	b := []byte{'['}
	for i := 0; i < h.n; i += historyPageRows {
		rows, err := json.Marshal(h.pages[i/historyPageRows][:min(historyPageRows, h.n-i)])
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, rows[1:len(rows)-1]...)
	}
	return append(b, ']'), nil
}

func (h *history) UnmarshalJSON(b []byte) error {
	var rows []ContractRecord
	if err := json.Unmarshal(b, &rows); err != nil {
		return err
	}
	*h = history{}
	if rows != nil {
		h.pages = []*[historyPageRows]ContractRecord{}
	}
	for _, r := range rows {
		h.append(r)
	}
	return nil
}
