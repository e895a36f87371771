// Package other declares nothing; its test calls into lib.
package other
