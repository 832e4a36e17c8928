package ra

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
)

// Channel is an authenticated-encryption channel over a negotiated session
// key, with deterministic counter nonces (each direction keeps its own
// counter, so a Channel pair must be used half-duplex per direction as the
// DEFLECTION send/recv stubs do).
type Channel struct {
	aead     cipher.AEAD
	sendSeq  uint64
	expected uint64
}

// NewChannel builds a channel from a 32-byte session key.
func NewChannel(key []byte) (*Channel, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("ra: %w", err)
	}
	aead, _ := cipher.NewGCM(block) // cannot fail: AES has 16-byte blocks
	return &Channel{aead: aead}, nil
}

func (c *Channel) nonce(seq uint64) []byte {
	n := make([]byte, c.aead.NonceSize())
	binary.BigEndian.PutUint64(n[len(n)-8:], seq)
	return n
}

// Seal encrypts and authenticates msg as the next message in sequence.
func (c *Channel) Seal(msg []byte) []byte {
	out := c.aead.Seal(nil, c.nonce(c.sendSeq), msg, nil)
	c.sendSeq++
	return out
}

// ErrReplay is returned when a ciphertext fails authentication (tampering,
// reordering or replay).
var ErrReplay = errors.New("ra: message authentication failed")

// Open authenticates and decrypts the next in-sequence ciphertext.
func (c *Channel) Open(ct []byte) ([]byte, error) {
	msg, err := c.aead.Open(nil, c.nonce(c.expected), ct, nil)
	if err != nil {
		return nil, ErrReplay
	}
	c.expected++
	return msg, nil
}
