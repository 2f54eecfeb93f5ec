package taskmodel

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// sliceTaskSetJSON is TaskSetJSON with the index lists as plain []int:
// the reflection decode IndexList's fast path must agree with.
type sliceTaskSetJSON struct {
	Platform Platform `json:"platform"`
	Tasks    []struct {
		Name     string `json:"name"`
		Core     int    `json:"core"`
		Priority int    `json:"priority"`
		PD       Time   `json:"pd"`
		MD       int64  `json:"md"`
		MDr      int64  `json:"mdr"`
		Period   Time   `json:"period"`
		Deadline Time   `json:"deadline"`
		UCB      []int  `json:"ucb"`
		ECB      []int  `json:"ecb"`
		PCB      []int  `json:"pcb"`
	} `json:"tasks"`
}

// readJSONSlices is ReadJSON over sliceTaskSetJSON.
func readJSONSlices(src string) (*TaskSet, error) {
	var in sliceTaskSetJSON
	if err := json.NewDecoder(strings.NewReader(src)).Decode(&in); err != nil {
		return nil, err
	}
	w := TaskSetJSON{Platform: in.Platform}
	for _, t := range in.Tasks {
		w.Tasks = append(w.Tasks, TaskJSON{
			Name: t.Name, Core: t.Core, Priority: t.Priority,
			PD: t.PD, MD: t.MD, MDr: t.MDr, Period: t.Period, Deadline: t.Deadline,
			UCB: t.UCB, ECB: t.ECB, PCB: t.PCB,
		})
	}
	return w.TaskSet()
}

// FuzzReadJSON checks the task-set decoder never panics, that it
// accepts exactly what the reflection decode of plain []int lists
// accepts, with equal task sets, and that any set it accepts validates
// and survives a re-encoding round trip.
func FuzzReadJSON(f *testing.F) {
	valid := `{"platform":{"NumCores":1,"Cache":{"NumSets":4,"BlockSizeBytes":32},"DMem":5,"SlotSize":1},
	 "tasks":[{"name":"x","core":0,"priority":0,"pd":1,"md":2,"mdr":1,"period":10,"deadline":10,
	  "ucb":[],"ecb":[1,2],"pcb":[1]}]}`
	f.Add(valid)
	f.Add(`{}`)
	f.Add(`{"platform":{"NumCores":-1}}`)
	f.Add(`{"platform":{"NumCores":1,"Cache":{"NumSets":4,"BlockSizeBytes":32},"DMem":5,"SlotSize":1},
	 "tasks":[{"name":"x","core":9,"priority":0,"pd":1,"md":2,"mdr":1,"period":10,"deadline":10,
	  "ucb":[],"ecb":[],"pcb":[]}]}`)
	f.Add(`{"platform":{"NumCores":1,"Cache":{"NumSets":4,"BlockSizeBytes":32},"DMem":5,"SlotSize":1},
	 "tasks":[{"name":"x","core":0,"priority":0,"pd":1,"md":2,"mdr":1,"period":10,"deadline":10,
	  "ucb":[],"ecb":[99],"pcb":[]}]}`)
	f.Add(`[`)
	f.Add(`{"platform":{"NumCores":1,"Cache":{"NumSets":80,"BlockSizeBytes":32},"DMem":5,"SlotSize":1},
	 "tasks":[{"name":"x","core":0,"priority":0,"pd":1,"md":2,"mdr":1,"period":10,"deadline":10,
	  "UCB":[ 3 ,1,1 ],"ecb":[0,1,3,63,64,79],"pcb":null,"ecb":[1, 3]}]}`)
	f.Add(`{"platform":{"NumCores":1,"Cache":{"NumSets":4,"BlockSizeBytes":32},"DMem":5,"SlotSize":1},
	 "tasks":[{"name":"x","core":0,"priority":0,"pd":1,"md":2,"mdr":1,"period":10,"deadline":10,
	  "ucb":[null],"ecb":[1.0,-0,1e0],"pcb":[12345678901234567890]}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked: %v", r)
			}
		}()
		ts, err := ReadJSON(strings.NewReader(src))
		want, wantErr := readJSONSlices(src)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadJSON error %v, []int decode error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(ts, want) {
			t.Fatalf("ReadJSON decoded %+v, []int decode %+v", ts, want)
		}
		if err := ts.Validate(); err != nil {
			t.Fatalf("accepted set fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted set fails re-encoding: %v", err)
		}
		if _, err := ReadJSON(&buf); err != nil {
			t.Fatalf("re-encoded set rejected: %v", err)
		}
	})
}
