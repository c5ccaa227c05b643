// Package auth implements the Faucets security model (paper §2.2): users
// authenticate to the Faucets Central Server with a userid/password pair,
// receive a session token embedded in later requests, and Faucets Daemons
// — which hold no accounting information — verify those credentials back
// with the Central Server. Jobs run on Compute Servers the user holds no
// account on under a temporary userid, which the daemon mints.
//
// Passwords are stored as salted SHA-256 digests; tokens are 128-bit
// random values from crypto/rand.
package auth

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Errors returned by the authenticator.
var (
	ErrUserExists   = errors.New("auth: user already exists")
	ErrBadCreds     = errors.New("auth: unknown user or wrong password")
	ErrBadToken     = errors.New("auth: invalid or expired token")
	ErrEmptyField   = errors.New("auth: empty user or password")
	ErrTokenExpired = errors.New("auth: token expired")
)

// user is one account record.
type user struct {
	name string
	salt [16]byte
	hash [32]byte
	// home is the user's Home Cluster for bartering (§5.5.3).
	home string
}

// session is one live token.
type session struct {
	user    string
	expires time.Time
}

// Authenticator is the Central Server's account and session store. It is
// safe for concurrent use.
type Authenticator struct {
	mu       sync.Mutex
	users    map[string]*user
	sessions map[string]*session
	ttl      time.Duration
	now      func() time.Time
	// swept is the session count the last sweep left; Login sweeps
	// again once the table has doubled from it.
	swept int
}

// New returns an Authenticator whose tokens live for ttl.
func New(ttl time.Duration) *Authenticator {
	return &Authenticator{
		users:    map[string]*user{},
		sessions: map[string]*session{},
		ttl:      ttl,
		now:      time.Now,
	}
}

// SetClock overrides the time source (tests).
func (a *Authenticator) SetClock(now func() time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = now
}

func hashPassword(salt [16]byte, password string) [32]byte {
	h := sha256.New()
	h.Write(salt[:])
	h.Write([]byte(password))
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// AddUser creates an account. homeCluster may be empty for users without
// a bartering home.
func (a *Authenticator) AddUser(name, password, homeCluster string) error {
	if name == "" || password == "" {
		return ErrEmptyField
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.users[name]; ok {
		return fmt.Errorf("%w: %s", ErrUserExists, name)
	}
	u := &user{name: name, home: homeCluster}
	if _, err := rand.Read(u.salt[:]); err != nil {
		return fmt.Errorf("auth: salt: %w", err)
	}
	u.hash = hashPassword(u.salt, password)
	a.users[name] = u
	return nil
}

// Login verifies credentials and mints a session token.
func (a *Authenticator) Login(name, password string) (token string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	u, ok := a.users[name]
	if !ok {
		// Hash anyway to keep timing comparable for unknown users.
		hashPassword([16]byte{}, password)
		return "", ErrBadCreds
	}
	want := hashPassword(u.salt, password)
	if subtle.ConstantTimeCompare(want[:], u.hash[:]) != 1 {
		return "", ErrBadCreds
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("auth: token: %w", err)
	}
	token = hex.EncodeToString(raw[:])
	now := a.now()
	a.sessions[token] = &session{user: name, expires: now.Add(a.ttl)}
	if len(a.sessions) >= 2*a.swept {
		// Verify reaps only a token presented again after its TTL; the
		// rest go here. Sweeping on doubling keeps a login O(1) amortised.
		for tok, s := range a.sessions {
			if now.After(s.expires) {
				delete(a.sessions, tok)
			}
		}
		a.swept = len(a.sessions)
	}
	return token, nil
}

// Verify resolves a token to its user — the call a Faucets Daemon makes
// back to the Central Server before acting on a client request.
func (a *Authenticator) Verify(token string) (userName string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.sessions[token]
	if !ok {
		return "", ErrBadToken
	}
	if a.now().After(s.expires) {
		delete(a.sessions, token)
		return "", ErrTokenExpired
	}
	return s.user, nil
}

// VerifyUser checks that a token belongs to the claimed user.
func (a *Authenticator) VerifyUser(userName, token string) error {
	got, err := a.Verify(token)
	if err != nil {
		return err
	}
	if got != userName {
		return ErrBadToken
	}
	return nil
}

// HomeCluster returns the user's bartering home cluster ("" if none).
func (a *Authenticator) HomeCluster(userName string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if u, ok := a.users[userName]; ok {
		return u.home
	}
	return ""
}
