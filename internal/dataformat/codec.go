package dataformat

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
)

// Encoding selects one of the open-standard wire encodings of the common
// format. The paper names JSON and XML; both are first-class here and a
// document round-trips losslessly through either.
type Encoding string

// Supported encodings.
const (
	JSON Encoding = "json"
	XML  Encoding = "xml"
)

// ContentType returns the MIME type proxies use for the encoding.
func (e Encoding) ContentType() string {
	if e == XML {
		return "application/xml"
	}
	return "application/json"
}

// ParseEncoding maps a MIME type or short name to an Encoding. Unknown
// values default to JSON, the infrastructure's primary encoding.
func ParseEncoding(s string) Encoding {
	switch s {
	case "xml", "application/xml", "text/xml":
		return XML
	default:
		return JSON
	}
}

// Document is the envelope every proxy response travels in. Exactly one
// payload field is set, matching Kind.
type Document struct {
	XMLName      xml.Name       `json:"-" xml:"document"`
	Version      string         `json:"version" xml:"version,attr"`
	Kind         Kind           `json:"kind" xml:"kind,attr"`
	Measurement  *Measurement   `json:"measurement,omitempty" xml:"measurement,omitempty"`
	Measurements []Measurement  `json:"measurements,omitempty" xml:"measurements>measurement,omitempty"`
	Entity       *Entity        `json:"entity,omitempty" xml:"entity,omitempty"`
	Entities     []Entity       `json:"entities,omitempty" xml:"entities>entity,omitempty"`
	Device       *DeviceInfo    `json:"device,omitempty" xml:"device,omitempty"`
	Control      *ControlResult `json:"control,omitempty" xml:"control,omitempty"`
}

// NewMeasurementDoc wraps a single measurement in an envelope.
func NewMeasurementDoc(m Measurement) *Document {
	return &Document{Version: Version, Kind: KindMeasurement, Measurement: &m}
}

// NewMeasurementsDoc wraps a batch of measurements in an envelope.
func NewMeasurementsDoc(ms []Measurement) *Document {
	return &Document{Version: Version, Kind: KindMeasurements, Measurements: ms}
}

// NewEntityDoc wraps a single entity in an envelope.
func NewEntityDoc(e Entity) *Document {
	return &Document{Version: Version, Kind: KindEntity, Entity: &e}
}

// NewEntitySetDoc wraps a set of entities in an envelope.
func NewEntitySetDoc(es []Entity) *Document {
	return &Document{Version: Version, Kind: KindEntitySet, Entities: es}
}

// NewDeviceInfoDoc wraps a device description in an envelope.
func NewDeviceInfoDoc(d DeviceInfo) *Document {
	return &Document{Version: Version, Kind: KindDeviceInfo, Device: &d}
}

// NewControlResultDoc wraps an actuation outcome in an envelope.
func NewControlResultDoc(c ControlResult) *Document {
	return &Document{Version: Version, Kind: KindControlResult, Control: &c}
}

// Validate checks the envelope invariants: version present, kind known,
// and the payload matching the kind present and itself valid.
func (d *Document) Validate() error {
	if d.Version == "" {
		return fmt.Errorf("%w: missing version", ErrInvalid)
	}
	switch d.Kind {
	case KindMeasurement:
		if d.Measurement == nil {
			return fmt.Errorf("%w: kind %q without payload", ErrInvalid, d.Kind)
		}
		return d.Measurement.Validate()
	case KindMeasurements:
		for i := range d.Measurements {
			if err := d.Measurements[i].Validate(); err != nil {
				return fmt.Errorf("measurement %d: %w", i, err)
			}
		}
		return nil
	case KindEntity:
		if d.Entity == nil {
			return fmt.Errorf("%w: kind %q without payload", ErrInvalid, d.Kind)
		}
		return d.Entity.Validate()
	case KindEntitySet:
		for i := range d.Entities {
			if err := d.Entities[i].Validate(); err != nil {
				return fmt.Errorf("entity %d: %w", i, err)
			}
		}
		return nil
	case KindDeviceInfo:
		if d.Device == nil {
			return fmt.Errorf("%w: kind %q without payload", ErrInvalid, d.Kind)
		}
		return nil
	case KindControlResult:
		if d.Control == nil {
			return fmt.Errorf("%w: kind %q without payload", ErrInvalid, d.Kind)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrInvalid, d.Kind)
	}
}

// Encode serializes the document in the requested encoding.
func (d *Document) Encode(enc Encoding) ([]byte, error) {
	switch enc {
	case XML:
		return xml.Marshal(d)
	default:
		return json.Marshal(d)
	}
}

// Decode parses a document from data in the given encoding and validates
// the envelope.
func Decode(data []byte, enc Encoding) (*Document, error) {
	var d Document
	var err error
	switch enc {
	case XML:
		err = xml.Unmarshal(data, &d)
	default:
		err = json.Unmarshal(data, &d)
	}
	if err != nil {
		return nil, fmt.Errorf("dataformat: decode %s: %w", enc, err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// DecodeFrom reads all of r and decodes a document from it.
func DecodeFrom(r io.Reader, enc Encoding) (*Document, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return Decode(buf.Bytes(), enc)
}

// Sniff guesses the encoding of raw document bytes from the first
// non-space byte: '<' means XML, anything else JSON.
func Sniff(data []byte) Encoding {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '<':
			return XML
		default:
			return JSON
		}
	}
	return JSON
}
